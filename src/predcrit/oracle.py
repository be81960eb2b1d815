"""Closed forms for the unit-variance normal-mean family.

Everything here is exact real arithmetic, no simulation, which is what
lets these functions serve as the trusted side of equivalence tests
against the draw-based pipeline.

Observed-data quantities take a NormalMeanSpec (n, ybar, s2y, m, mu0)
where m is the prior precision; m = 0 recovers the flat prior as a
special case of every formula. A spec whose ybar and s2y are arrays gets
one value per entry, which is how replication studies evaluate a whole
chunk of replicate datasets at once.

Expectations average over replicate datasets y ~ N(theta, 1)^n and
future data from the same source. Every value `dataset_values` gives is
affine in three statistics of a dataset: s2y, (ybar - mu0)^2 and
err2 = (theta - posterior mean)^2. So its expectation is the same formula
at the expected statistics: E s2y = 1, E (ybar - mu0)^2 = prior_dev2 + 1/n
and E err2 = (m / (m + n))^2 prior_dev2 + n / (m + n)^2, where the scalar
`prior_dev2 = E (theta - mu0)^2` describes how theta is generated: 1/m
when theta is drawn from the prior, (theta0 - mu0)^2 when fixed.
"""
from __future__ import annotations

import math

import numpy as np

from .draws import _require_finite_fields
from .models.normal import NormalMeanSpec, _square

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
    "dataset_values",
    "true_p",
    "expectations",
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


def _shift(spec: NormalMeanSpec, k):
    """m (ybar - mu0) / (m + k), the prior's pull on a posterior mean from k
    points (k = n for the full posterior, n - 1 for a leave-one-out fold).
    The weight, at most 1, applies before ybar - mu0 multiplies in, so the
    shift overflows only where ybar - mu0 does."""
    return spec.m / (spec.m + k) * (spec.ybar - spec.mu0)


def _shrunk_dev2(spec: NormalMeanSpec) -> float:
    # n (ybar - posterior_mean)^2
    return spec.n * _square(_shift(spec, spec.n))


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
        + n / (2 * _square(m + n))
    )


def _loo(spec: NormalMeanSpec):
    """(lppd_loo, lppd_bar) from the sufficient statistics."""
    n, m = spec.n, spec.m
    if n < 2:
        raise ValueError("leave-one-out requires at least 2 data points")
    sq_dev = (n - 1) * spec.s2y  # sum_i (y_i - ybar)^2
    w = 1.0 / (m + n - 1)
    shift2 = n * _square(_shift(spec, n - 1))  # n (m (ybar - mu0) w)^2
    const = -(n / 2) * math.log(2 * math.pi * (1 + w))
    # With d_i = y_i - ybar: y_i - c_i = ((m+n) d_i + m (ybar - mu0)) w, and
    # fold i scores the full data with sum_j (y_j - c_i)^2
    # = sq_dev + n (ybar - c_i)^2, where ybar - c_i = (m (ybar - mu0) + d_i) w.
    # Summing over i (sum_i d_i = 0) leaves only sufficient statistics.
    lppd_loo = const - (((m + n) * w) ** 2 * sq_dev + shift2) / (2 * (1 + w))
    lppd_bar = const - (sq_dev * (1 + w**2) + shift2) / (2 * (1 + w))
    return lppd_loo, lppd_bar


def loo_quantities(y, m: float = 0.0, mu0: float = 0.0):
    """(lppd_loo, lppd_bar): exact leave-one-out predictive summaries.

    The fold-i posterior predictive is N(. | c_i, 1 + w) with
    c_i = (m mu0 + (n-1) ybar_-i)/(m+n-1) and w = 1/(m+n-1); lppd_loo scores
    each held-out point, lppd_bar averages the full-data score over folds.
    Works along the last axis of `y`, so a stack of datasets gives one pair
    of values per dataset.
    """
    return _loo(NormalMeanSpec.from_data(y, m=m, mu0=mu0))


def _b(spec: NormalMeanSpec):
    """lppd - lppd_bar without subtracting the two: each is a sum of size
    about 1.4 n and their gap about 1/(2n), so the difference keeps only
    about four correct digits at n = 1e6. With v = 1/(m+n) and
    w = 1/(m+n-1), w - v = w v, and every term below is positive; the
    prior's m^2 (ybar - mu0)^2 w v is the fold shift times the full one."""
    n, m = spec.n, spec.m
    v = 1.0 / (m + n)
    w = 1.0 / (m + n - 1)
    wv = w * v
    spread = (wv * (n - 1) * spec.s2y * w
              + n * (w + v + wv) / 2 * _shift(spec, n - 1) * _shift(spec, n))
    return (n / 2) * math.log1p(wv / (1 + v)) + spread / ((1 + w) * (1 + v))


def _elppd_point(err2, post_var: float):
    return -0.5 * math.log(2 * math.pi * (1 + post_var)) - (err2 + 1.0) / (2 * (1 + post_var))


def dataset_values(spec: NormalMeanSpec, err2) -> dict:
    """Every base quantity and estimator value of a dataset whose true
    mean theta sits at err2 = (theta - posterior mean)^2.

    Base quantities: `elppd` (the target, n times the expected log density
    of a new point ytilde ~ N(theta, 1) under the posterior predictive),
    `lppd_within` (the within-sample `lppd`) and, when n >= 2, `lppd_loo`
    and `lppd_bar`. Estimator values, one per name of the expectation
    study: the criterion names (aic, dic, waic1, waic2, loo, cloo) are the
    gap elppd - estimate (positive = estimator pessimistic); `lppd` is the
    optimism lppd_within - elppd; the p_* names are the penalties; `elppd`
    and `b` are themselves. The leave-one-out names need n >= 2.

    Array statistics in `spec` and `err2` give one value per entry.
    """
    n = spec.n
    elppd = n * _elppd_point(err2, spec.posterior_var)
    lppd_within = lppd(spec)
    p_w1 = p_waic1(spec)
    p_w2 = p_waic2(spec)
    out = {
        "elppd": elppd,
        "lppd_within": lppd_within,
        "lppd": lppd_within - elppd,
        "aic": elppd - elpd_aic(spec),
        "dic": elppd - (lpd_at_posterior_mean(spec) - p_dic(spec)),
        "waic1": elppd - (lppd_within - p_w1),
        "waic2": elppd - (lppd_within - p_w2),
        "p_dic": np.full(np.shape(err2), p_dic(spec)),
        "p_waic1": p_w1,
        "p_waic2": p_w2,
    }
    if n >= 2:
        lppd_loo, lppd_bar = _loo(spec)
        b = _b(spec)
        out.update(
            lppd_loo=lppd_loo,
            lppd_bar=lppd_bar,
            loo=elppd - lppd_loo,
            cloo=elppd - (lppd_loo + b),
            p_loo=lppd_within - lppd_loo,
            p_cloo=lppd_bar - lppd_loo,
            b=b,
        )
    return out


# ---------------------------------------------------------------------------
# expectations over replicate datasets
# ---------------------------------------------------------------------------

def true_p(n: int, m: float = 0.0) -> float:
    """The correct effective-parameter count E(lppd) - elppd = n/(m+n+1)."""
    return n / (m + n + 1)


def expectations(n: int, m: float = 0.0, prior_dev2: float | None = None) -> dict:
    """`dataset_values` at the expected statistics: the exact expectation
    of every entry over replicate datasets, as floats. Leave-one-out entries
    need n >= 2.

    `prior_dev2` defaults to 1/m (theta drawn from the prior) when m > 0;
    under the flat prior every term it enters carries the weight m / (m + n)
    and vanishes.
    An entry that overflows to NaN or inf is refused with
    `NonFiniteLogLikError` naming it.

    Flat-prior exact forms: the AIC gap is 1/2 - (n/2) log(1 + 1/n), about
    1/(4n); the WAIC-2 gap is (n-1)/(2n(n+1)), opposite in sign to the
    WAIC-1 gap for every n >= 2; the LOO gap is -(n/2) log(1 - 1/n^2),
    since conditioning on n-1 points makes LOO pessimistic; the corrected
    LOO gap is -1/(n^2+n); p_cloo is (n-1)/n and p_waic2 is 1 - 1/(2n).
    """
    if prior_dev2 is None:
        prior_dev2 = 0.0 if m == 0 else 1.0 / m
    elif prior_dev2 < 0:
        raise ValueError("prior_dev2 must be nonnegative")
    # with mu0 = 0, (ybar - mu0)^2 = ybar^2 takes its expected value
    spec = NormalMeanSpec(n=n, ybar=math.sqrt(prior_dev2 + 1.0 / n), s2y=1.0, m=m)
    err2 = (m / (m + n)) ** 2 * prior_dev2 + n / (m + n) / (m + n)
    exact = {name: float(v) for name, v in dataset_values(spec, err2).items()}
    _require_finite_fields(exact, "the closed forms")
    return exact


# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def formula_table(spec: NormalMeanSpec) -> dict:
    """Every formula evaluated for one input, as a flat dict (CLI payload).
    The observed and expected leave-one-out entries need n >= 2. An entry
    that overflows to NaN or inf is refused with `NonFiniteLogLikError`
    naming it, as is an expectation that does."""
    n, m = spec.n, spec.m
    e = expectations(n, m)
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
        "expected_lppd": e["lppd_within"],
        "expected_elppd": e["elppd"],
        "expected_p_waic1": e["p_waic1"],
        "expected_p_waic2": e["p_waic2"],
        "expected_aic_gap": e["aic"],
        "expected_waic1_gap": e["waic1"],
        "expected_waic2_gap": e["waic2"],
    }
    if n >= 2:
        lo, bar = _loo(spec)
        out.update(
            expected_lppd_loo=e["lppd_loo"],
            expected_lppd_bar=e["lppd_bar"],
            expected_b=e["b"],
            expected_p_cloo=e["p_cloo"],
            expected_loo_gap=e["loo"],
            expected_cloo_gap=e["cloo"],
            lppd_loo=lo,
            lppd_bar_minus_i=bar,
        )
    _require_finite_fields(out, "the closed forms")
    return out
