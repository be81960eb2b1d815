"""Replication studies validating estimator expectations against closed forms.

Each replicate draws a true mean (fixed, or from the prior when the prior
is proper), then the two statistics of a dataset y_1..y_n ~ N(theta, 1):
its mean ybar and its sample variance s2y. By Cochran's theorem they are
independent, with ybar ~ N(theta, 1/n) and (n - 1) s2y ~ chi^2_{n-1}, and
every estimator of this family depends on a dataset only through them; so
drawing the pair gives each replicate's estimator values their exact law
without drawing the n points, and a study costs the same at any n.
Each chunk of replicates goes through the oracle module's closed forms at
once, the per-point target elppd included, so no second Monte Carlo layer
is needed; the averages over replicates are z-scored against the exact
expectations the plan holds.

Replicates are generated in fixed-size chunks, each chunk from its own
derived seed, so chunks can be computed in any order (or in parallel) and
reassembled bit-identically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import oracle
from .draws import _require_finite_fields, mc_standard_error
from .models.normal import _check_settings
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

# Gap quantities are estimator-vs-target (elppd) errors, paired per
# replicate; penalty quantities are the raw effective-parameter counts.
# `oracle.dataset_values` gives each per replicate, `oracle.expectations`
# its exact expectation.
ESTIMATOR_NAMES = (
    "aic", "dic", "waic1", "waic2", "loo", "cloo", "lppd",
    "elppd", "p_dic", "p_waic1", "p_waic2", "p_loo", "p_cloo", "b",
)


@dataclass(frozen=True)
class ReplicationPlan:
    """What to replicate and which estimators to score: by default, every
    estimator that `n` allows (those needing a held-out point want n >= 2).
    The prior mean is 0, so a fixed true mean `theta0` is its offset from it;
    `theta0=None` draws the true mean from the prior N(0, 1/m). Under the
    flat prior (m = 0) no value depends on the true mean, and None becomes 0.
    `exact`, the study's table from `oracle.expectations`, is built once
    here; it is not a field, so `asdict`, `replace` and equality skip it."""

    R: int
    n: int
    m: float = 0.0
    theta0: float | None = None
    seed: int = 12345
    estimators: tuple = ()

    def __post_init__(self):
        if self.R < 10:
            raise ValueError("too few replicates for error bars")
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.theta0 is None and self.m == 0:
            object.__setattr__(self, "theta0", 0.0)
        _check_settings(m=self.m, theta0=0.0 if self.theta0 is None else self.theta0)
        # the oracle divides by n and by m, so it is asked only once both are checked
        prior_dev2 = None if self.theta0 is None else self.theta0**2
        object.__setattr__(self, "exact", oracle.expectations(self.n, self.m, prior_dev2))
        object.__setattr__(self, "estimators",
                           tuple(self.estimators or (e for e in ESTIMATOR_NAMES if e in self.exact)))
        unknown = set(self.estimators) - set(ESTIMATOR_NAMES)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")
        loo_requested = set(self.estimators) - self.exact.keys()
        if loo_requested:
            raise ValueError(f"estimators {sorted(loo_requested)} require n >= 2")


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
        settings = {f.name: getattr(self.plan, f.name) for f in fields(self.plan)}
        return settings | {"estimators": {name: dict(s.__dict__) for name, s in self.stats.items()}}


def _chunk_sizes(R: int) -> list[int]:
    full, rem = divmod(R, CHUNK)
    return [CHUNK] * full + ([rem] if rem else [])


def _replicate_chunk(plan: ReplicationPlan, chunk_index: int, size: int) -> dict:
    """Per-replicate estimator values for one chunk (own derived seed).

    Draws each replicate's (ybar, s2y), not its n points, from their exact
    joint law: ybar ~ N(theta, 1/n) and, independently, (n - 1) s2y ~
    chi^2_{n-1} (Cochran's theorem). `oracle.dataset_values` reads a
    dataset only through the pair, so its values have the law of a
    point-by-point draw at a cost that does not depend on n. At n = 1 the
    spread is 0, as `NormalMeanSpec.from_data` gives it. The posterior error
    theta - posterior mean is (m theta - n d) / (m + n), d = ybar - theta the
    drawn noise: no difference of two numbers the size of theta, whatever m.
    """
    rng = np.random.default_rng(derive_seed(plan.seed, chunk_index))
    n, m = plan.n, plan.m
    theta = math.sqrt(1.0 / m) * rng.standard_normal(size) if plan.theta0 is None else plan.theta0
    d = rng.standard_normal(size) / math.sqrt(n)  # the noise ybar - theta
    s2y = rng.chisquare(n - 1, size) / (n - 1) if n >= 2 else np.zeros(size)
    spec = oracle.NormalMeanSpec(n=n, ybar=theta + d, s2y=s2y, m=m)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused once averaged
        values = oracle.dataset_values(spec, ((m * theta - n * d) / (m + n)) ** 2)
    return {name: values[name] for name in plan.estimators}


def run_expectation_study(plan: ReplicationPlan) -> ExpectationResult:
    """Average each requested estimator over R replicates and z-score it.

    The `lppd` entry reports within-sample optimism (lppd - elppd, target
    true_p); criterion names (aic, dic, waic1/2, loo, cloo) report the
    paired gap between the target elppd and the estimate; p_* entries
    report the raw penalties; `elppd` and `b` report themselves.
    """
    chunks = [_replicate_chunk(plan, c, size) for c, size in enumerate(_chunk_sizes(plan.R))]
    result = ExpectationResult(plan=plan)
    for name in plan.estimators:
        vals = np.concatenate([c[name] for c in chunks])
        with np.errstate(over="ignore", invalid="ignore"):
            mc_mean = float(vals.mean())
            # NaN and inf carry into the mean, so a finite one clears every replicate
            _require_finite_fields({name: mc_mean}, "the replicate values")
            # a constant estimator has no Monte Carlo error; its rounding-level
            # sample variance would turn an exact match into a huge z-score
            mc_se = 0.0 if (vals == vals[0]).all() else mc_standard_error(vals)
            _require_finite_fields({f"the mc_se of {name}": mc_se}, "the replicate values")
        oracle_value = plan.exact[name]
        if mc_se > 0:
            z = (mc_mean - oracle_value) / mc_se
        elif math.isclose(mc_mean, oracle_value, rel_tol=1e-9, abs_tol=1e-12):
            z = 0.0
        else:
            z = math.inf
        result.stats[name] = EstimatorStat(mc_mean, mc_se, oracle_value, z)
    return result


def bias_curve(plan: ReplicationPlan, n_values) -> list[dict]:
    """One expectation study per n: `plan` with that n and its seed
    unchanged, so each n's rows are `run_expectation_study` at that n. One
    row per n and estimator, ready for CSV or plotting."""
    return [
        {"n": int(n), "estimator": name, "mc_mean": s.mc_mean, "mc_se": s.mc_se, "oracle": s.oracle_value}
        for n in n_values
        for name, s in run_expectation_study(replace(plan, n=int(n))).stats.items()
    ]
