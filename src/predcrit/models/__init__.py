"""Built-in Bayesian models producing parameter draws and pointwise log likelihoods."""
from __future__ import annotations

import numpy as np

from ..draws import _csv_rows
from ..errors import MatrixFormatError
from .balanced import BalancedModel, balanced_group_posterior_draws, balanced_hierarchical_loglik, load_balanced_csv
from .normal import NormalMeanModel, NormalMeanSpec, normal_pointwise_loglik, normal_posterior_draws
from .regression import DIC_PARAMETERIZATIONS, RegressionData, RegressionModel, regression_fit
from .schools import (
    EightSchoolsData,
    SchoolsModel,
    default_eight_schools,
    load_schools_csv,
    schools_fit,
)

__all__ = [
    "NormalMeanModel",
    "NormalMeanSpec",
    "normal_posterior_draws",
    "normal_pointwise_loglik",
    "RegressionData",
    "RegressionModel",
    "regression_fit",
    "DIC_PARAMETERIZATIONS",
    "EightSchoolsData",
    "SchoolsModel",
    "schools_fit",
    "default_eight_schools",
    "load_schools_csv",
    "BalancedModel",
    "balanced_hierarchical_loglik",
    "balanced_group_posterior_draws",
    "load_balanced_csv",
    "load_election_csv",
    "default_election",
]


def load_election_csv(source) -> RegressionData:
    """Read `year,growth,vote` rows (header required) into regression data."""
    rows = _csv_rows(source)
    if not rows or rows[0] != ["year", "growth", "vote"]:
        raise MatrixFormatError("election CSV must start with header year,growth,vote")
    growth, vote = [], []
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != 3:
            raise MatrixFormatError(f"row {r} has {len(row)} cells, expected 3")
        try:
            growth.append(float(row[1]))
            vote.append(float(row[2]))
        except ValueError:
            raise MatrixFormatError(f"row {r} has a non-numeric cell") from None
    return RegressionData(np.array(growth), np.array(vote))


def default_election() -> RegressionData:
    """The bundled income-growth vs. vote-share dataset (15 elections)."""
    from importlib import resources

    ref = resources.files(__package__).joinpath("data/election.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_election_csv(fh)
