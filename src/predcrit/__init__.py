"""Predictive-accuracy estimates for Bayesian models from posterior draws.

Core pipeline: a pointwise log-likelihood matrix (S draws x n points) in,
information criteria and cross-validation summaries out. Built-in
conjugate fitters, closed-form oracles for the normal-mean family, and a
replication harness for validating estimator expectations round it out.
"""
from .draws import (
    PointwiseLogLikMatrix,
    log_mean_exp,
    lppd,
    mc_standard_error,
    read_loglik_csv,
    sample_variance,
)
from .criteria import (
    CriterionReport,
    PointEstimateLogLik,
    aic,
    bic,
    criterion_report,
    lpd_posterior_summary,
    p_dic_alt,
)
from .errors import MatrixFormatError, ModelRefusalError, NonFiniteLogLikError
from .expectation import ReplicationPlan, bias_curve, run_expectation_study
from .loo import LooReport, bias_correct, loo_report, p_cloo, p_loo
from .seeds import derive_seed

__version__ = "0.1.0"

__all__ = [
    "PointwiseLogLikMatrix",
    "log_mean_exp",
    "sample_variance",
    "mc_standard_error",
    "lppd",
    "read_loglik_csv",
    "PointEstimateLogLik",
    "CriterionReport",
    "aic",
    "bic",
    "p_dic_alt",
    "lpd_posterior_summary",
    "criterion_report",
    "LooReport",
    "bias_correct",
    "p_loo",
    "p_cloo",
    "loo_report",
    "ReplicationPlan",
    "run_expectation_study",
    "bias_curve",
    "derive_seed",
    "MatrixFormatError",
    "NonFiniteLogLikError",
    "ModelRefusalError",
]
