"""Built-in Bayesian models producing parameter draws and pointwise log likelihoods."""
from __future__ import annotations

from ..draws import _read_table
from .balanced import BalancedModel, load_balanced_csv
from .normal import NormalMeanModel, NormalMeanSpec
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
    "load_balanced_csv",
    "load_election_csv",
    "default_election",
]


def load_election_csv(source) -> RegressionData:
    """Read `year,growth,vote` rows (header required; the year is not read)
    into regression data."""
    table = _read_table(source, ("year", "growth", "vote"), "election data", "elections", labels=1)
    growth, vote = table.T
    return RegressionData(growth, vote)


def default_election() -> RegressionData:
    """The bundled income-growth vs. vote-share dataset (15 elections)."""
    from importlib import resources

    ref = resources.files(__package__).joinpath("data/election.csv")
    with ref.open("r", encoding="utf-8") as fh:
        return load_election_csv(fh)
