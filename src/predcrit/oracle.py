"""Closed forms for the unit-variance normal-mean family.

Everything here is exact real arithmetic, no simulation, which is what
lets these functions serve as the trusted side of equivalence tests
against the draw-based pipeline.

Observed-data quantities take a NormalMeanSpec (n, ybar, s2y, m, mu0)
where m is the prior precision; m = 0 recovers the flat prior as a
special case of every formula. A spec whose ybar and s2y are arrays gets
one value per entry, which is how replication studies evaluate a whole
chunk of replicate datasets at once.

Expectation quantities average over replicate datasets y ~ N(theta, 1)^n
and future data from the same source. They take the scalar
`prior_dev2 = E (theta - mu0)^2` describing how theta is generated:
1/m when theta is drawn from the prior, (theta0 - mu0)^2 when fixed.
By default it is resolved that way automatically (from_prior for m > 0,
irrelevant for m = 0 where every m^2-weighted term vanishes).
"""
from __future__ import annotations

import math

import numpy as np

from .models.normal import NormalMeanSpec

__all__ = [
    "NormalMeanSpec",
    "lpd_at_mle",
    "elpd_aic",
    "lpd_at_posterior_mean",
    "mean_posterior_loglik",
    "p_dic",
    "lppd",
    "p_waic1",
    "p_waic2",
    "loo_quantities",
    "elppd_given_posterior",
    "true_p",
    "expected_lppd",
    "expected_elppd",
    "expected_elpd_aic",
    "expected_lpd_at_mean",
    "expected_elpd_dic",
    "expected_p_waic1",
    "expected_p_waic2",
    "expected_lppd_loo",
    "expected_lppd_bar",
    "expected_b",
    "expected_p_cloo",
    "expected_aic_gap",
    "expected_dic_gap",
    "expected_waic1_gap",
    "expected_waic2_gap",
    "expected_loo_gap",
    "expected_cloo_gap",
    "formula_table",
]

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# observed-data formulas
# ---------------------------------------------------------------------------

def lpd_at_mle(spec: NormalMeanSpec) -> float:
    """log p(y | theta_mle), theta_mle = ybar."""
    return -(spec.n / 2) * _LOG_2PI - 0.5 * (spec.n - 1) * spec.s2y


def elpd_aic(spec: NormalMeanSpec) -> float:
    """lpd_at_mle minus the single fitted parameter."""
    return lpd_at_mle(spec) - 1.0


def _shrunk_dev2(spec: NormalMeanSpec) -> float:
    # n (ybar - posterior_mean)^2 = n m^2 (ybar - mu0)^2 / (m + n)^2
    return spec.n * (spec.m / (spec.m + spec.n)) ** 2 * (spec.ybar - spec.mu0) ** 2


def lpd_at_posterior_mean(spec: NormalMeanSpec) -> float:
    """log p(y | posterior mean of theta)."""
    return -(spec.n / 2) * _LOG_2PI - 0.5 * (spec.n - 1) * spec.s2y - 0.5 * _shrunk_dev2(spec)


def mean_posterior_loglik(spec: NormalMeanSpec) -> float:
    """E_post log p(y | theta)."""
    return lpd_at_posterior_mean(spec) - spec.n / (2 * (spec.m + spec.n))


def p_dic(spec: NormalMeanSpec) -> float:
    """Exactly n / (m + n): 1 under the flat prior, 0 as the prior dominates."""
    return spec.n / (spec.m + spec.n)


def lppd(spec: NormalMeanSpec) -> float:
    """Sum of log posterior predictive densities at the observed points."""
    n, m = spec.n, spec.m
    v = 1.0 / (m + n)
    quad = (n - 1) * spec.s2y + _shrunk_dev2(spec)
    return -(n / 2) * _LOG_2PI - (n / 2) * math.log1p(v) - quad / (2 * (1 + v))


def p_waic1(spec: NormalMeanSpec) -> float:
    """2 (lppd - E_post log p(y|theta)), in closed form."""
    n, m = spec.n, spec.m
    return (
        (n - 1) * spec.s2y / (m + n + 1)
        + _shrunk_dev2(spec) / (m + n + 1)
        + n / (m + n)
        - n * math.log1p(1.0 / (m + n))
    )


def p_waic2(spec: NormalMeanSpec) -> float:
    """Summed posterior variances of the pointwise log densities."""
    n, m = spec.n, spec.m
    return (
        (n - 1) * spec.s2y / (m + n)
        + _shrunk_dev2(spec) / (m + n)
        + n / (2 * (m + n) ** 2)
    )


def loo_quantities(y, m: float = 0.0, mu0: float = 0.0):
    """(lppd_loo, lppd_bar): exact leave-one-out predictive summaries.

    The fold-i posterior predictive is N(. | c_i, 1 + w) with
    c_i = (m mu0 + (n-1) ybar_-i)/(m+n-1) and w = 1/(m+n-1); lppd_loo scores
    each held-out point, lppd_bar averages the full-data score over folds.
    Works along the last axis of `y`, so a stack of datasets gives one pair
    of values per dataset.
    """
    y = np.asarray(y, dtype=float)
    n = y.shape[-1]
    if n < 2:
        raise ValueError("leave-one-out requires at least 2 data points")
    if m < 0:
        raise ValueError("prior precision m must be nonnegative")
    w = 1.0 / (m + n - 1)
    ybar = y.mean(axis=-1)
    sum_dev2 = ((y - ybar[..., None]) ** 2).sum(axis=-1)
    shift2 = n * m**2 * (ybar - mu0) ** 2
    const = -(n / 2) * math.log(2 * math.pi * (1 + w))
    # With d_i = y_i - ybar: y_i - c_i = ((m+n) d_i + m (ybar - mu0)) w, and
    # fold i scores the full data with sum_j (y_j - c_i)^2
    # = sum_dev2 + n (ybar - c_i)^2, where ybar - c_i = (m (ybar - mu0) + d_i) w.
    # Summing over i (sum_i d_i = 0) leaves only sufficient statistics.
    lppd_loo = const - ((m + n) ** 2 * sum_dev2 + shift2) * w**2 / (2 * (1 + w))
    lppd_bar = const - (sum_dev2 * (1 + w**2) + shift2 * w**2) / (2 * (1 + w))
    return lppd_loo, lppd_bar


def elppd_given_posterior(theta0: float, post_mean: float, post_var: float) -> float:
    """Per-point expected log predictive density under a known truth.

    E over ytilde ~ N(theta0, 1) of log N(ytilde | post_mean, 1 + post_var).
    Lets replication studies evaluate their target analytically instead of
    with a second Monte Carlo layer.
    """
    if post_var < 0:
        raise ValueError("posterior variance must be nonnegative")
    return -0.5 * math.log(2 * math.pi * (1 + post_var)) - (
        (theta0 - post_mean) ** 2 + 1.0
    ) / (2 * (1 + post_var))


# ---------------------------------------------------------------------------
# expectations over replicate datasets
# ---------------------------------------------------------------------------

def _pd2(m: float, prior_dev2: float | None) -> float:
    if prior_dev2 is not None:
        if prior_dev2 < 0:
            raise ValueError("prior_dev2 must be nonnegative")
        return prior_dev2
    return 0.0 if m == 0 else 1.0 / m


def expected_elppd(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """Target: expected log pointwise predictive density for new data."""
    pd2 = _pd2(m, prior_dev2)
    v = 1.0 / (m + n)
    post_sq = (m**2 * pd2 + n) / (m + n) ** 2
    return -(n / 2) * math.log(2 * math.pi * (1 + v)) - n * (1 + post_sq) / (2 * (1 + v))


def expected_lppd(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """E over replicate datasets of the within-sample lppd."""
    pd2 = _pd2(m, prior_dev2)
    v = 1.0 / (m + n)
    dev2 = pd2 + 1.0 / n
    quad = (n - 1) + n * m**2 * dev2 / (m + n) ** 2
    return -(n / 2) * math.log(2 * math.pi * (1 + v)) - quad / (2 * (1 + v))


def true_p(n: int, m: float = 0.0) -> float:
    """The correct effective-parameter count E(lppd) - elppd = n/(m+n+1)."""
    return n / (m + n + 1)


def expected_elpd_aic(n: int) -> float:
    """Prior-free: the MLE and s^2 distributions do not involve the prior."""
    return -(n / 2) * _LOG_2PI - (n + 1) / 2


def expected_lpd_at_mean(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    pd2 = _pd2(m, prior_dev2)
    dev2 = pd2 + 1.0 / n
    return -(n / 2) * _LOG_2PI - 0.5 * ((n - 1) + n * (m / (m + n)) ** 2 * dev2)


def expected_elpd_dic(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    return expected_lpd_at_mean(n, m, prior_dev2) - n / (m + n)


def expected_p_waic1(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    pd2 = _pd2(m, prior_dev2)
    dev2 = pd2 + 1.0 / n
    return (
        (n - 1) / (m + n + 1)
        + n * m**2 * dev2 / ((m + n) ** 2 * (m + n + 1))
        + n / (m + n)
        - n * math.log1p(1.0 / (m + n))
    )


def expected_p_waic2(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """Flat prior: exactly 1 - 1/(2n)."""
    pd2 = _pd2(m, prior_dev2)
    dev2 = pd2 + 1.0 / n
    return (n - 1) / (m + n) + n * m**2 * dev2 / (m + n) ** 3 + n / (2 * (m + n) ** 2)


def _loo_pieces(n: int, m: float, prior_dev2: float | None) -> tuple[float, float]:
    if n < 2:
        raise ValueError("leave-one-out expectations require n >= 2")
    pd2 = _pd2(m, prior_dev2)
    q = 1.0 / (m + n - 1)
    held = 1.0 + (m**2 * pd2 + (n - 1)) * q**2
    const = -(n / 2) * math.log(2 * math.pi * (1 + q))
    e_loo = const - n * held / (2 * (1 + q))
    e_bar = const - (n * held - 2 * (n - 1) * q) / (2 * (1 + q))
    return e_loo, e_bar


def expected_lppd_loo(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    return _loo_pieces(n, m, prior_dev2)[0]


def expected_lppd_bar(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    return _loo_pieces(n, m, prior_dev2)[1]


def expected_b(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """E of the first-order bias correction, E(lppd) - E(lppd_bar)."""
    return expected_lppd(n, m, prior_dev2) - expected_lppd_bar(n, m, prior_dev2)


def expected_p_cloo(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """Flat prior: exactly (n-1)/n."""
    e_loo, e_bar = _loo_pieces(n, m, prior_dev2)
    return e_bar - e_loo


# ---- estimator-vs-target gaps (positive = estimator pessimistic) ----------

def expected_aic_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """elppd - E(elpd_aic); flat prior: 1/2 - (n/2) log(1 + 1/n) ~ 1/(4n)."""
    return expected_elppd(n, m, prior_dev2) - expected_elpd_aic(n)


def expected_dic_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    return expected_elppd(n, m, prior_dev2) - expected_elpd_dic(n, m, prior_dev2)


def expected_waic1_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    return (
        expected_elppd(n, m, prior_dev2)
        - expected_lppd(n, m, prior_dev2)
        + expected_p_waic1(n, m, prior_dev2)
    )


def expected_waic2_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """Flat prior: exactly (n-1)/(2n(n+1)), opposite in sign to the
    variant-1 gap for every n >= 2."""
    return (
        expected_elppd(n, m, prior_dev2)
        - expected_lppd(n, m, prior_dev2)
        + expected_p_waic2(n, m, prior_dev2)
    )


def expected_loo_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """elppd - E(lppd_loo) = -(n/2) log(1 - 1/(m+n)^2); conditioning on
    n-1 points makes LOO pessimistic."""
    return expected_elppd(n, m, prior_dev2) - expected_lppd_loo(n, m, prior_dev2)


def expected_cloo_gap(n: int, m: float = 0.0, prior_dev2: float | None = None) -> float:
    """Flat prior: exactly -1/(n^2 + n)."""
    return expected_loo_gap(n, m, prior_dev2) - expected_b(n, m, prior_dev2)


# ---------------------------------------------------------------------------

def formula_table(spec: NormalMeanSpec, y=None) -> dict:
    """Every formula evaluated for one input, as a flat dict (CLI payload).

    Leave-one-out entries need the raw data vector and are included only
    when `y` is given.
    """
    n, m = spec.n, spec.m
    out = {
        "n": n,
        "m": m,
        "ybar": spec.ybar,
        "s2y": spec.s2y,
        "mu0": spec.mu0,
        "lpd_at_mle": lpd_at_mle(spec),
        "elpd_aic": elpd_aic(spec),
        "lpd_at_posterior_mean": lpd_at_posterior_mean(spec),
        "mean_posterior_loglik": mean_posterior_loglik(spec),
        "p_dic": p_dic(spec),
        "lppd": lppd(spec),
        "p_waic1": p_waic1(spec),
        "p_waic2": p_waic2(spec),
        "true_p": true_p(n, m),
        "expected_lppd": expected_lppd(n, m),
        "expected_elppd": expected_elppd(n, m),
        "expected_p_waic1": expected_p_waic1(n, m),
        "expected_p_waic2": expected_p_waic2(n, m),
        "expected_aic_gap": expected_aic_gap(n, m),
        "expected_waic1_gap": expected_waic1_gap(n, m),
        "expected_waic2_gap": expected_waic2_gap(n, m),
    }
    if n >= 2:
        out.update(
            expected_lppd_loo=expected_lppd_loo(n, m),
            expected_lppd_bar=expected_lppd_bar(n, m),
            expected_b=expected_b(n, m),
            expected_p_cloo=expected_p_cloo(n, m),
            expected_loo_gap=expected_loo_gap(n, m),
            expected_cloo_gap=expected_cloo_gap(n, m),
        )
    if y is not None:
        lo, bar = loo_quantities(y, m=m, mu0=spec.mu0)
        out.update(lppd_loo=lo, lppd_bar_minus_i=bar)
    return out
