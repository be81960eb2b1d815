"""Built-in Bayesian models producing parameter draws and pointwise log likelihoods."""
from __future__ import annotations

from .balanced import COUNTINGS, BalancedModel, load_balanced_csv
from .normal import NormalMeanModel, NormalMeanSpec
from .regression import (
    DIC_PARAMETERIZATIONS,
    RegressionData,
    RegressionModel,
    load_election_csv,
    regression_fit,
)
from .schools import POOLING_MODES, EightSchoolsData, SchoolsModel, load_schools_csv, schools_fit

__all__ = [
    "NormalMeanModel",
    "NormalMeanSpec",
    "RegressionData",
    "RegressionModel",
    "regression_fit",
    "load_election_csv",
    "DIC_PARAMETERIZATIONS",
    "EightSchoolsData",
    "SchoolsModel",
    "schools_fit",
    "load_schools_csv",
    "POOLING_MODES",
    "BalancedModel",
    "load_balanced_csv",
    "COUNTINGS",
]
