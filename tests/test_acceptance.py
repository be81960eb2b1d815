"""Acceptance suite: the six release criteria, each printing one PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them inline).

Every tolerance is pinned here. Published table cells quoted without an
explicit interval are asserted to +-0.1, one unit in the last printed
decimal; Monte Carlo cells carry their stated intervals.
"""
import math
import time

import numpy as np

from predcrit import oracle
from predcrit.expectation import ReplicationPlan, run_expectation_study
from predcrit.loo import loo_report
from predcrit.models import NormalMeanModel, NormalMeanSpec
from predcrit.reports import election_report, schools_table_report

SEED = 12345
DRAWS = 100_000
R = 100_000


def _check(failures, label, ok, got=None):
    if not ok:
        failures.append(f"{label} (got {got})")


def _within(failures, label, got, want, tol):
    _check(failures, f"{label} = {want} +- {tol}", abs(got - want) <= tol, round(got, 4))


def _finish(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} ({desc}): {status}")
    for item in failures:
        print(f"    failed: {item}")
    assert not failures


# ---------------------------------------------------------------------------
def test_criterion_1_schools_table():
    failures = []
    start = time.perf_counter()
    table = schools_table_report(draws=DRAWS, seed=SEED)
    elapsed = time.perf_counter() - start
    rows = table["rows"]
    np_, cp, hi = "no_pooling", "complete_pooling", "hierarchical"

    _within(failures, "np -2lpd_mle", rows["minus2_lpd_mle"][np_], 54.6, 0.1)
    _within(failures, "np aic", rows["aic"][np_], 70.6, 0.1)
    _within(failures, "cp -2lpd_mle", rows["minus2_lpd_mle"][cp], 59.4, 0.1)
    _within(failures, "cp aic", rows["aic"][cp], 61.4, 0.1)
    _within(failures, "cp dic", rows["dic"][cp], 61.4, 0.1)
    _check(
        failures, "cp aic == dic (within MC noise)",
        abs(rows["aic"][cp] - rows["dic"][cp]) <= 0.05,
        (rows["aic"][cp], rows["dic"][cp]),
    )
    _within(failures, "hier -2lpd_mean", rows["minus2_lpd_mean"][hi], 57.4, 0.3)
    _within(failures, "hier p_dic", rows["p_dic"][hi], 2.8, 0.3)
    _within(failures, "hier dic", rows["dic"][hi], 63.0, 0.5)

    for mode, want in ((np_, 60.2), (cp, 59.8), (hi, 59.2)):
        _within(failures, f"{mode} -2lppd", rows["minus2_lppd"][mode], want, 0.3)
    for mode, want in ((np_, 2.5), (cp, 0.6), (hi, 1.0)):
        _within(failures, f"{mode} p_waic1", rows["p_waic1"][mode], want, 0.3)
    for mode, want in ((np_, 4.0), (cp, 0.7), (hi, 1.3)):
        _within(failures, f"{mode} p_waic2", rows["p_waic2"][mode], want, 0.3)
    for mode, want in ((np_, 68.2), (cp, 61.2), (hi, 61.8)):
        _within(failures, f"{mode} waic", rows["waic"][mode], want, 0.5)
    _within(failures, "cp p_loo", rows["p_loo"][cp], 0.5, 0.3)
    _within(failures, "hier p_loo", rows["p_loo"][hi], 1.8, 0.3)
    _within(failures, "cp -2lppd_loo", rows["minus2_lppd_loo"][cp], 60.8, 0.5)
    _within(failures, "hier -2lppd_loo", rows["minus2_lppd_loo"][hi], 62.8, 0.5)

    for name in ("minus2_lpd_mle", "k", "aic"):
        _check(failures, f"hier {name} undefined", isinstance(rows[name][hi], str), rows[name][hi])
    for name in ("p_loo", "minus2_lppd_loo"):
        _check(failures, f"np {name} undefined", isinstance(rows[name][np_], str), rows[name][np_])
    _check(failures, "runtime under 2 minutes", elapsed < 120.0, f"{elapsed:.1f}s")
    _finish(1, "eight-schools deviance table", failures)


# ---------------------------------------------------------------------------
def test_criterion_2_election_example():
    failures = []
    rep = election_report(draws=DRAWS, seed=SEED)
    c = rep["criteria"]

    mle = rep["mle"]
    _check(failures, "mle a -> 45.9", round(mle["a"], 1) == 45.9, mle["a"])
    _check(failures, "mle b -> 3.2", round(mle["b"], 1) == 3.2, mle["b"])
    _check(failures, "mle sigma -> 3.6", round(mle["sigma"], 1) == 3.6, mle["sigma"])

    _within(failures, "lppd", c["lppd"], -40.9, 0.1)
    _within(failures, "mle log-lik", c["lpd_at_mle"], -40.3, 0.05)
    _check(
        failures, "aic identity exact",
        c["aic"] == -2.0 * (c["lpd_at_mle"] - 3.0), c["aic"],
    )
    _check(failures, "aic -> 86.6", round(c["aic"], 1) == 86.6, c["aic"])

    _within(failures, "p_dic", c["p_dic"], 3.0, 0.1)
    _within(failures, "dic", c["dic"], 87.0, 0.2)
    _within(failures, "p_waic1", c["p_waic1"], 2.2, 0.1)
    _within(failures, "p_waic2", c["p_waic2"], 2.7, 0.1)
    _within(failures, "waic (variant 2)", c["waic"], 87.2, 0.2)
    _within(failures, "waic (variant 1)", -2.0 * c["elppd_waic1"], 86.2, 0.2)

    loo = rep["loo"]
    _within(failures, "p_loo", loo["p_loo"], 2.9, 0.2)
    _within(failures, "-2 lppd_loo", -2.0 * loo["lppd_loo"], 87.6, 0.3)

    fig = rep["lpd_posterior"]
    _within(failures, "lpd posterior mean", fig["mean"], -42.0, 0.1)
    _within(failures, "lpd posterior max", fig["max"], -40.3, 0.05)
    _within(failures, "mean-to-max gap", fig["gap"], 1.7, 0.1)
    _finish(2, "election regression example", failures)


# ---------------------------------------------------------------------------
def test_criterion_3_exact_oracle_identities():
    failures = []
    rtol = 1e-12
    rng = np.random.default_rng(314159)

    for n in range(1, 31):
        for m in (0.0, 0.5, float(n), 10.0 * n):
            spec = NormalMeanSpec(n=n, m=m)
            got = oracle.p_dic(spec)
            want = n / (m + n)
            _check(failures, f"p_dic({n},{m})", math.isclose(got, want, rel_tol=rtol), got)

    log2pi = math.log(2 * math.pi)
    for n in range(1, 31):
        ybar = float(rng.normal(0, 5))
        s2 = float(rng.uniform(0, 4))
        spec = NormalMeanSpec(n=n, ybar=ybar, s2y=s2, m=0.0, mu0=float(rng.normal()))
        ref_lppd = (
            -(n / 2) * log2pi - (n / 2) * math.log(1 + 1 / n)
            - 0.5 * (n * (n - 1) / (n + 1)) * s2
        )
        ref_pw1 = (n - 1) / (n + 1) * s2 + 1 - n * math.log(1 + 1 / n)
        ref_pw2 = (n - 1) / n * s2 + 1 / (2 * n)
        ref_mle = -(n / 2) * log2pi - 0.5 * (n - 1) * s2
        pairs = (
            ("lppd", oracle.lppd(spec), ref_lppd),
            ("p_waic1", oracle.p_waic1(spec), ref_pw1),
            ("p_waic2", oracle.p_waic2(spec), ref_pw2),
            ("lpd_at_mle", oracle.lpd_at_mle(spec), ref_mle),
            ("lpd_at_mean", oracle.lpd_at_posterior_mean(spec), ref_mle),
        )
        for name, got, want in pairs:
            ok = math.isclose(got, want, rel_tol=rtol, abs_tol=1e-12)
            _check(failures, f"flat {name} at n={n}", ok, got)

    for n in range(1, 51):
        _check(
            failures, f"true_p({n})",
            math.isclose(oracle.true_p(n), n / (n + 1), rel_tol=rtol), oracle.true_p(n),
        )
    for n in range(2, 51):
        got = oracle.expected_p_cloo(n)
        _check(
            failures, f"expected_p_cloo({n})",
            math.isclose(got, (n - 1) / n, rel_tol=1e-11), got,
        )

    _check(failures, "p_waic2(n=1,m=0) == 0.5", oracle.p_waic2(NormalMeanSpec(n=1)) == 0.5, None)
    got = oracle.p_waic1(NormalMeanSpec(n=1))
    _check(
        failures, "p_waic1(n=1,m=0) == 1 - log 2",
        math.isclose(got, 1 - math.log(2), rel_tol=rtol), got,
    )
    _finish(3, "exact oracle identities", failures)


# ---------------------------------------------------------------------------
def test_criterion_4_expectation_suite():
    failures = []
    start = time.perf_counter()
    z_checked = ("p_waic1", "p_waic2", "lppd", "aic", "loo", "cloo")
    for n in (1, 2, 5, 10, 25):
        for m, source in ((0.0, "fixed"), (float(n), "from_prior")):
            names = tuple(e for e in ("p_waic1", "p_waic2", "lppd", "aic", "loo", "cloo", "waic1", "waic2") if n >= 2 or e not in ("loo", "cloo"))
            plan = ReplicationPlan(
                R=R, n=n, m=m, theta_source=source, seed=SEED, estimators=names
            )
            result = run_expectation_study(plan)
            for name in names:
                if name not in z_checked:
                    continue
                s = result.stats[name]
                _check(
                    failures,
                    f"|z| < 3 for {name} at n={n}, m={m}",
                    abs(s.z_score) < 3,
                    f"z={s.z_score:.2f} mc={s.mc_mean:.5f} oracle={s.oracle_value:.5f}",
                )
            if n >= 2:
                # opposite signs: exact at the oracle; the MC side must agree
                # with each oracle within 3 se and preserve the paired order
                # (the order difference is the sharp paired mean of
                # p_waic2 - p_waic1, resolvable far beyond the per-gap noise)
                g1, g2 = result.stats["waic1"], result.stats["waic2"]
                _check(
                    failures,
                    f"waic gap signs opposite at n={n}, m={m}",
                    g1.oracle_value < 0 < g2.oracle_value
                    and abs(g1.z_score) < 3
                    and abs(g2.z_score) < 3
                    and g1.mc_mean < g2.mc_mean,
                    (g1.mc_mean, g2.mc_mean, g1.z_score, g2.z_score),
                )
    elapsed = time.perf_counter() - start
    _check(failures, "runtime under 5 minutes", elapsed < 300.0, f"{elapsed:.1f}s")
    _finish(4, "Monte Carlo expectation suite", failures)


# ---------------------------------------------------------------------------
def test_criterion_5_brute_force_loo_equivalence():
    failures = []
    rng = np.random.default_rng(2024)
    for case in range(20):
        n = int(rng.integers(2, 11))
        m = 0.0 if case % 2 == 0 else float(rng.uniform(0.2, 3.0))
        mu0 = float(rng.normal(0, 1))
        y = rng.normal(rng.uniform(-2, 2), 1.0, size=n)
        analytic, _ = oracle.loo_quantities(y, m=m, mu0=mu0)
        model = NormalMeanModel(m=m, mu0=mu0)
        rep = loo_report(model, y, lppd_full=0.0, draws=DRAWS, seed=int(rng.integers(1 << 30)))
        diff = abs(rep.lppd_loo - analytic)
        _check(
            failures,
            f"case {case} (n={n}, m={m:.2f}) refit vs analytic",
            diff < 3 * rep.mc_se_lppd_loo,
            f"diff={diff:.5f} 3se={3 * rep.mc_se_lppd_loo:.5f}",
        )
    _finish(5, "brute-force LOO equivalence", failures)


# ---------------------------------------------------------------------------
def test_criterion_6_property_suite():
    failures = []
    rng = np.random.default_rng(161803)

    from predcrit.criteria import PointEstimateLogLik, criterion_report
    from predcrit.draws import PointwiseLogLikMatrix, log_mean_exp
    from predcrit.errors import ModelRefusalError
    from predcrit.expectation import _chunk_sizes, _replicate_chunk
    from predcrit.models import SchoolsModel, default_eight_schools
    from predcrit.seeds import derive_seed
    from predcrit.loo import loo_report

    mat = PointwiseLogLikMatrix(rng.normal(-5, 2, size=(200, 10)))
    jensen_ok = all(
        log_mean_exp(mat.column(i))
        >= mat.column(i).mean() - 1e-12 * max(1.0, abs(log_mean_exp(mat.column(i))))
        for i in range(10)
    )
    _check(failures, "Jensen inequality per column", jensen_ok)
    rep = criterion_report(mat, lpd_at_mean=-50.0, mle=PointEstimateLogLik(-49.0, k=3))
    _check(failures, "p_waic1 nonnegative", rep.p_waic1 >= 0, rep.p_waic1)
    _check(failures, "p_waic2 nonnegative", rep.p_waic2 >= 0, rep.p_waic2)

    col = rng.normal(-2, 1, size=30)
    base = log_mean_exp(col)
    shift_ok = all(
        abs(log_mean_exp(col + c) - c - base) < 1e-9 for c in (700.0, -700.0, 1e5, -1e5)
    )
    _check(failures, "log-mean-exp shift invariance to 1e5", shift_ok)

    _check(
        failures, "deviance identities exact",
        rep.waic == -2.0 * (rep.lppd - rep.p_waic2)
        and rep.dic == -2.0 * rep.lpd_at_mean + 2.0 * rep.p_dic
        and rep.aic == -2.0 * rep.lpd_at_mle + 2.0 * rep.k,
    )

    model = NormalMeanModel()
    y = rng.normal(size=5)
    per_point = loo_report(model, y, 0.0, draws=2_000, seed=8).per_point
    redone = {
        i: log_mean_exp(
            model.fit(y, exclude=i, draws=2_000, seed=derive_seed(8, i))
            .pointwise_loglik().column(i)
        )
        for i in (4, 1, 3, 0, 2)
    }
    _check(
        failures, "fold-order bit reproducibility",
        [redone[i] for i in range(5)] == per_point,
    )

    plan = ReplicationPlan(R=10_000, n=3, seed=5, estimators=("waic2",))
    direct = run_expectation_study(plan).stats["waic2"].mc_mean
    sizes = _chunk_sizes(plan.R)
    reassembled = np.concatenate(
        [_replicate_chunk(plan, c, s)["waic2"] for c, s in enumerate(sizes)]
    ).mean()
    _check(failures, "replicate-chunk bit reproducibility", float(reassembled) == direct)

    refused = False
    try:
        loo_report(SchoolsModel("no_pooling"), default_eight_schools(), 0.0, draws=200, seed=1)
    except ModelRefusalError as exc:
        refused = "model cannot predict held-out point" in str(exc)
    _check(failures, "no-pooling LOO refusal error", refused)

    _finish(6, "structural property suite", failures)
