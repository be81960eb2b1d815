"""Replication studies validating estimator expectations against closed forms.

Each replicate draws a true mean (fixed, or from the prior when the prior
is proper), draws a dataset y_1..y_n ~ N(theta, 1), and evaluates every
requested estimator with the oracle module's closed forms, applied to
the whole chunk of replicates at once; the per-point target elppd is also
evaluated analytically, so no second Monte Carlo layer is needed. Averages
over replicates then get z-scored against the exact expectations from the
oracle module.

Replicates are generated in fixed-size chunks, each chunk from its own
derived seed, so chunks can be computed in any order (or in parallel) and
reassembled bit-identically.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .seeds import derive_seed

__all__ = [
    "ReplicationPlan",
    "EstimatorStat",
    "ExpectationResult",
    "ESTIMATOR_NAMES",
    "run_expectation_study",
    "bias_curve",
]

CHUNK = 8192

# name -> (per-replicate quantity, oracle fn, needs n >= 2 loo machinery)
# Gap quantities are estimator-vs-target (elppd) errors, paired per
# replicate; penalty quantities are the raw effective-parameter counts.
ESTIMATOR_NAMES = (
    "aic",
    "dic",
    "waic1",
    "waic2",
    "loo",
    "cloo",
    "lppd",
    "elppd",
    "p_dic",
    "p_waic1",
    "p_waic2",
    "p_loo",
    "p_cloo",
    "b",
)

_LOO_NAMES = {"loo", "cloo", "p_loo", "p_cloo", "b"}


@dataclass(frozen=True)
class ReplicationPlan:
    """What to replicate and which estimators to score."""

    R: int
    n: int
    m: float = 0.0
    theta_source: str = "fixed"
    theta0: float = 0.0
    mu0: float = 0.0
    seed: int = 12345
    estimators: tuple = ESTIMATOR_NAMES

    def __post_init__(self):
        if self.R < 10:
            raise ValueError("too few replicates for error bars")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.m < 0:
            raise ValueError("prior precision m must be nonnegative")
        if self.theta_source not in ("fixed", "from_prior"):
            raise ValueError("theta_source must be 'fixed' or 'from_prior'")
        if self.theta_source == "from_prior" and self.m <= 0:
            raise ValueError("from_prior requires a proper prior (m > 0)")
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        loo_requested = set(self.estimators) & _LOO_NAMES
        if loo_requested and self.n < 2:
            raise ValueError(
                f"estimators {sorted(loo_requested)} require n >= 2"
            )
        object.__setattr__(self, "estimators", tuple(self.estimators))

    @property
    def prior_dev2(self) -> float:
        if self.theta_source == "from_prior":
            return 1.0 / self.m
        return (self.theta0 - self.mu0) ** 2


@dataclass(frozen=True)
class EstimatorStat:
    mc_mean: float
    mc_se: float
    oracle_value: float
    z_score: float


@dataclass
class ExpectationResult:
    plan: ReplicationPlan
    stats: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "R": self.plan.R,
            "n": self.plan.n,
            "m": self.plan.m,
            "theta_source": self.plan.theta_source,
            "seed": self.plan.seed,
            "estimators": {
                name: {
                    "mc_mean": s.mc_mean,
                    "mc_se": s.mc_se,
                    "oracle_value": s.oracle_value,
                    "z_score": s.z_score,
                }
                for name, s in self.stats.items()
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _chunk_sizes(R: int) -> list[int]:
    full, rem = divmod(R, CHUNK)
    return [CHUNK] * full + ([rem] if rem else [])


def _replicate_chunk(plan: ReplicationPlan, chunk_index: int, size: int) -> dict:
    """Per-replicate estimator values for one chunk (own derived seed)."""
    rng = np.random.default_rng(derive_seed(plan.seed, chunk_index))
    n, m, mu0 = plan.n, plan.m, plan.mu0
    if plan.theta_source == "from_prior":
        theta = mu0 + math.sqrt(1.0 / m) * rng.standard_normal(size)
    else:
        theta = np.full(size, plan.theta0)
    y = theta[:, None] + rng.standard_normal((size, n))

    s2y = y.var(axis=1, ddof=1) if n > 1 else np.zeros(size)
    spec = oracle.NormalMeanSpec(n=n, ybar=y.mean(axis=1), s2y=s2y, m=m, mu0=mu0)
    lppd = oracle.lppd(spec)
    elppd = n * oracle.elppd_given_posterior(theta, spec.posterior_mean, spec.posterior_var)
    p_w1 = oracle.p_waic1(spec)
    p_w2 = oracle.p_waic2(spec)

    values = {
        "lppd": lppd - elppd,
        "elppd": elppd,
        "aic": elppd - oracle.elpd_aic(spec),
        "dic": elppd - (oracle.lpd_at_posterior_mean(spec) - oracle.p_dic(spec)),
        "waic1": elppd - (lppd - p_w1),
        "waic2": elppd - (lppd - p_w2),
        "p_dic": np.full(size, oracle.p_dic(spec)),
        "p_waic1": p_w1,
        "p_waic2": p_w2,
    }

    if set(plan.estimators) & _LOO_NAMES:
        lppd_loo, lppd_bar = oracle.loo_quantities(y, m, mu0)
        b = lppd - lppd_bar
        values["loo"] = elppd - lppd_loo
        values["cloo"] = elppd - (lppd_loo + b)
        values["p_loo"] = lppd - lppd_loo
        values["p_cloo"] = lppd_bar - lppd_loo
        values["b"] = b

    return {name: values[name] for name in plan.estimators}


def _oracle_value(name: str, plan: ReplicationPlan) -> float:
    n, m, pd2 = plan.n, plan.m, plan.prior_dev2
    table = {
        "lppd": lambda: oracle.true_p(n, m),
        "elppd": lambda: oracle.expected_elppd(n, m, pd2),
        "aic": lambda: oracle.expected_aic_gap(n, m, pd2),
        "dic": lambda: oracle.expected_dic_gap(n, m, pd2),
        "waic1": lambda: oracle.expected_waic1_gap(n, m, pd2),
        "waic2": lambda: oracle.expected_waic2_gap(n, m, pd2),
        "loo": lambda: oracle.expected_loo_gap(n, m, pd2),
        "cloo": lambda: oracle.expected_cloo_gap(n, m, pd2),
        "b": lambda: oracle.expected_b(n, m, pd2),
        "p_dic": lambda: oracle.p_dic(oracle.NormalMeanSpec(n=n, m=m)),
        "p_waic1": lambda: oracle.expected_p_waic1(n, m, pd2),
        "p_waic2": lambda: oracle.expected_p_waic2(n, m, pd2),
        "p_loo": lambda: oracle.expected_lppd(n, m, pd2) - oracle.expected_lppd_loo(n, m, pd2),
        "p_cloo": lambda: oracle.expected_p_cloo(n, m, pd2),
    }
    return float(table[name]())


def run_expectation_study(plan: ReplicationPlan) -> ExpectationResult:
    """Average each requested estimator over R replicates and z-score it.

    The `lppd` entry reports within-sample optimism (lppd - elppd, target
    true_p); criterion names (aic, dic, waic1/2, loo, cloo) report the
    paired gap between the target elppd and the estimate; p_* entries
    report the raw penalties; `elppd` and `b` report themselves.
    """
    chunks = [
        _replicate_chunk(plan, c, size)
        for c, size in enumerate(_chunk_sizes(plan.R))
    ]
    result = ExpectationResult(plan=plan)
    for name in plan.estimators:
        vals = np.concatenate([c[name] for c in chunks])
        mc_mean = float(vals.mean())
        # a constant estimator has no Monte Carlo error; its rounding-level
        # sample variance would turn an exact match into a huge z-score
        mc_se = 0.0 if (vals == vals[0]).all() else float(math.sqrt(vals.var(ddof=1) / plan.R))
        oracle_value = _oracle_value(name, plan)
        if mc_se > 0:
            z = (mc_mean - oracle_value) / mc_se
        elif math.isclose(mc_mean, oracle_value, rel_tol=1e-9, abs_tol=1e-12):
            # degenerate estimator (constant across replicates), e.g. p_dic
            z = 0.0
        else:
            z = math.inf
        result.stats[name] = EstimatorStat(mc_mean, mc_se, oracle_value, z)
    return result


def bias_curve(n_values, m: float, estimator: str, R: int, seed: int) -> list[dict]:
    """One expectation study per n; rows ready for CSV or plotting."""
    rows = []
    source = "from_prior" if m > 0 else "fixed"
    for idx, n in enumerate(n_values):
        plan = ReplicationPlan(
            R=R,
            n=int(n),
            m=m,
            theta_source=source,
            seed=derive_seed(seed, idx),
            estimators=(estimator,),
        )
        stat = run_expectation_study(plan).stats[estimator]
        rows.append(
            {
                "n": int(n),
                "estimator": estimator,
                "mc_mean": stat.mc_mean,
                "mc_se": stat.mc_se,
                "oracle": stat.oracle_value,
            }
        )
    return rows
