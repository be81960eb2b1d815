"""The benchmark's four workloads: inputs made from a seed, one job, and
the check of a job's output.

Inputs are generated here with numpy alone; predcrit only receives them.
Draw matrices hold log N(y_i | theta_s, 1) with theta_s drawn from the
exact normal-mean posterior, so the oracle's closed forms give the values
that criteria computed from them must approach.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from predcrit import criteria, oracle
from predcrit.cli import main as cli_main
from predcrit.draws import PointwiseLogLikMatrix
from predcrit.models import NormalMeanSpec

PRIOR_M = 1.0
PRIOR_MU0 = 0.0
# |estimate - closed form| allowed, in units of the reported MC-SE plus,
# for the estimates built on log(mean_s exp(a_si)), the size of the O(1/S)
# terms that a delta-method MC-SE leaves out. Here the draws share one
# scalar theta, so the first-order influence of lppd nearly cancels at some
# seeds; mc_se_lppd alone then understates the error (|z| up to 13 in 400
# seeds at S = 2000), while p_waic2 has no such term. Over 1000 seeds at
# S = 2000 no estimate came within 4.4 of these units.
ORACLE_Z = 6.0
SECOND_ORDER_FACTOR = {"lppd": 1.0, "p_waic1": 2.0, "p_waic2": 0.0}
# |z| allowed for each estimator of the expectation study, where R = 20000
# replicates average each estimator against its exact expectation.
EXPECT_Z = 5.0


class JobFailed(Exception):
    """A job exited non-zero."""


def run_cli(argv) -> None:
    """One in-process CLI command; a non-zero exit raises JobFailed."""
    try:
        cli_main.main(args=list(argv), prog_name="predcrit", standalone_mode=False)
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise JobFailed(f"predcrit {argv[0]} exited with code {exc.code}") from None


class Job:
    """One job, rebuilt from a JSON-able spec so a fresh process can run it.

    spec = {"cli": [argv, ...], "outputs": [path, ...]} for CLI jobs, or
    {"matrix": path, "lpd_at_mean": x} for the in-memory library call;
    either may add "pace": [calibration, ...] (see `calibration`).
    """

    def __init__(self, spec: dict, matrix: np.ndarray | None = None):
        self.spec = spec
        self.matrix = matrix
        self._text = None

    def load(self) -> None:
        """Load what the job reads from memory (untimed)."""
        if "matrix" in self.spec and self.matrix is None:
            self.matrix = np.load(self.spec["matrix"])

    def run(self) -> None:
        if "cli" in self.spec:
            for argv in self.spec["cli"]:
                run_cli(argv)
        else:
            # looked up at call time, so the traced pass sees its wrapper
            rep = criteria.criterion_report(
                PointwiseLogLikMatrix(self.matrix), lpd_at_mean=self.spec["lpd_at_mean"]
            )
            self._text = rep.to_json()

    @property
    def calibration(self) -> tuple[str, ...]:
        """The pace.py calibrations whose work resembles this job's."""
        return tuple(self.spec.get("pace", ("array",)))

    def outputs(self) -> list[bytes]:
        """What the last run produced, read back outside the timed interval."""
        if "cli" in self.spec:
            return [Path(p).read_bytes() for p in self.spec["outputs"]]
        return [self._text.encode()]


# ---------------------------------------------------------------------------
def normal_mean_inputs(seed: int, S: int, n: int):
    """(y, draw matrix a, lpd at the posterior mean) for one seed."""
    rng = np.random.default_rng(seed)
    theta_true = rng.standard_normal()
    y = theta_true + rng.standard_normal(n)
    post_mean = (PRIOR_M * PRIOR_MU0 + n * y.mean()) / (PRIOR_M + n)
    post_sd = math.sqrt(1.0 / (PRIOR_M + n))
    theta = post_mean + post_sd * rng.standard_normal(S)
    half_log_2pi = 0.5 * math.log(2 * math.pi)
    a = -half_log_2pi - 0.5 * (y[None, :] - theta[:, None]) ** 2
    lpd_at_mean = float((-half_log_2pi - 0.5 * (y - post_mean) ** 2).sum())
    return y, a, lpd_at_mean


def write_matrix_csv(a: np.ndarray, path: Path) -> None:
    """Header row plus one row per draw; repr round-trips every float."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"point_{j + 1}" for j in range(a.shape[1])) + "\n")
        for row in a.tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def _close(got, want, rel=1e-10, abs_=1e-8) -> bool:
    return math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want)


class CriteriaCheck:
    """lppd, p_waic1 and p_waic2 against a plain-numpy reference on the
    same matrix, and against the oracle within ORACLE_Z x (reported MC-SE
    + SECOND_ORDER_FACTOR x the O(1/S) term)."""

    def __init__(self, y: np.ndarray, a: np.ndarray):
        S = a.shape[0]
        lme = np.logaddexp.reduce(a, axis=0) - math.log(S)
        mean = a.mean(axis=0)
        self.S, self.n = a.shape
        self.reference = {
            "lppd": float(lme.sum()),
            "p_waic1": float(2.0 * (lme - mean).sum()),
            "p_waic2": float(((a - mean) ** 2).sum(axis=0).sum() / (S - 1)),
        }
        # sum_i Var_s(p(y_i | theta_s) / mean_s p(y_i | theta_s)) / S
        self.second_order = float((np.exp(a - lme).var(axis=0, ddof=1) / S).sum())
        spec = NormalMeanSpec.from_data(y, m=PRIOR_M, mu0=PRIOR_MU0)
        self.exact = {
            "lppd": oracle.lppd(spec),
            "p_waic1": oracle.p_waic1(spec),
            "p_waic2": oracle.p_waic2(spec),
        }

    def problems(self, outputs: list[bytes]) -> list[str]:
        payload = json.loads(outputs[0])
        rep = payload.get("report", payload)
        found = []
        for name, want in self.reference.items():
            got = rep[name]
            if not _close(got, want):
                found.append(f"{name} = {got!r}, numpy reference {want!r}")
            allowed = ORACLE_Z * (rep[f"mc_se_{name}"] + SECOND_ORDER_FACTOR[name] * self.second_order)
            if not abs(got - self.exact[name]) <= allowed:
                found.append(f"{name} = {got!r} is more than {allowed!r} from the closed form {self.exact[name]!r}")
        if payload.get("draws", self.S) != self.S:
            found.append(f"draws = {payload['draws']}, expected {self.S}")
        return found


# Reference values and tolerances pinned in the acceptance suite for the
# schools table and the election example (100000 draws).
SCHOOLS_PINNED = [
    ("minus2_lpd_mle", "no_pooling", 54.6, 0.1),
    ("aic", "no_pooling", 70.6, 0.1),
    ("minus2_lpd_mle", "complete_pooling", 59.4, 0.1),
    ("aic", "complete_pooling", 61.4, 0.1),
    ("dic", "complete_pooling", 61.4, 0.1),
    ("minus2_lpd_mean", "hierarchical", 57.4, 0.3),
    ("p_dic", "hierarchical", 2.8, 0.3),
    ("dic", "hierarchical", 63.0, 0.5),
    ("minus2_lppd", "no_pooling", 60.2, 0.3),
    ("minus2_lppd", "complete_pooling", 59.8, 0.3),
    ("minus2_lppd", "hierarchical", 59.2, 0.3),
    ("p_waic1", "no_pooling", 2.5, 0.3),
    ("p_waic1", "complete_pooling", 0.6, 0.3),
    ("p_waic1", "hierarchical", 1.0, 0.3),
    ("p_waic2", "no_pooling", 4.0, 0.3),
    ("p_waic2", "complete_pooling", 0.7, 0.3),
    ("p_waic2", "hierarchical", 1.3, 0.3),
    ("waic", "no_pooling", 68.2, 0.5),
    ("waic", "complete_pooling", 61.2, 0.5),
    ("waic", "hierarchical", 61.8, 0.5),
    ("p_loo", "complete_pooling", 0.5, 0.3),
    ("p_loo", "hierarchical", 1.8, 0.3),
    ("minus2_lppd_loo", "complete_pooling", 60.8, 0.5),
    ("minus2_lppd_loo", "hierarchical", 62.8, 0.5),
]
SCHOOLS_UNDEFINED = [
    ("minus2_lpd_mle", "hierarchical"),
    ("k", "hierarchical"),
    ("aic", "hierarchical"),
    ("p_loo", "no_pooling"),
    ("minus2_lppd_loo", "no_pooling"),
]
ELECTION_PINNED = [
    (("criteria", "lppd"), -40.9, 0.1),
    (("criteria", "lpd_at_mle"), -40.3, 0.05),
    (("criteria", "p_dic"), 3.0, 0.1),
    (("criteria", "dic"), 87.0, 0.2),
    (("criteria", "p_waic1"), 2.2, 0.1),
    (("criteria", "p_waic2"), 2.7, 0.1),
    (("criteria", "waic"), 87.2, 0.2),
    (("loo", "p_loo"), 2.9, 0.2),
    (("lpd_posterior", "mean"), -42.0, 0.1),
    (("lpd_posterior", "max"), -40.3, 0.05),
    (("lpd_posterior", "gap"), 1.7, 0.1),
]
ELECTION_ROUNDED = [(("mle", "a"), 45.9), (("mle", "b"), 3.2), (("mle", "sigma"), 3.6),
                    (("criteria", "aic"), 86.6)]


def paper_tables_problems(outputs: list[bytes]) -> list[str]:
    table, election = json.loads(outputs[0]), json.loads(outputs[1])
    rows = table["rows"]
    found = []
    for row, col, want, tol in SCHOOLS_PINNED:
        got = rows[row][col]
        if not abs(got - want) <= tol:
            found.append(f"schools {row}[{col}] = {got!r}, pinned {want} +- {tol}")
    cp_gap = abs(rows["aic"]["complete_pooling"] - rows["dic"]["complete_pooling"])
    if not cp_gap <= 0.05:
        found.append(f"schools complete-pooling |aic - dic| = {cp_gap!r} > 0.05")
    for row, col in SCHOOLS_UNDEFINED:
        if not isinstance(rows[row][col], str):
            found.append(f"schools {row}[{col}] should be undefined, got {rows[row][col]!r}")

    def at(path):
        return election[path[0]][path[1]]

    for path, want, tol in ELECTION_PINNED:
        if not abs(at(path) - want) <= tol:
            found.append(f"election {'.'.join(path)} = {at(path)!r}, pinned {want} +- {tol}")
    for path, want in ELECTION_ROUNDED:
        if round(at(path), 1) != want:
            found.append(f"election {'.'.join(path)} = {at(path)!r} does not round to {want}")
    c = election["criteria"]
    if c["aic"] != -2.0 * (c["lpd_at_mle"] - 3.0):
        found.append("election aic != -2 (lpd_at_mle - 3)")
    if not abs(-2.0 * c["elppd_waic1"] - 86.2) <= 0.2:
        found.append(f"election waic variant 1 = {-2.0 * c['elppd_waic1']!r}, pinned 86.2 +- 0.2")
    if not abs(-2.0 * election["loo"]["lppd_loo"] - 87.6) <= 0.3:
        found.append(f"election -2 lppd_loo = {-2.0 * election['loo']['lppd_loo']!r}, pinned 87.6 +- 0.3")
    return found


EXPECT_ESTIMATORS = 14


def expect_problems(outputs: list[bytes]) -> list[str]:
    estimators = json.loads(outputs[0])["estimators"]
    found = []
    if len(estimators) != EXPECT_ESTIMATORS:
        found.append(f"{len(estimators)} estimators reported, expected {EXPECT_ESTIMATORS}")
    for name, s in estimators.items():
        if not abs(s["z_score"]) <= EXPECT_Z:
            found.append(f"{name}: z = {s['z_score']!r} outside +-{EXPECT_Z}")
    return found


# ---------------------------------------------------------------------------
class Workload:
    """Inputs for one seed, written under `workdir`, and the job that reads them.

    Attributes: `spec` (the Job spec), `input_bytes` (the denominator of
    peak_mem_x), `work_per_job` and `work_unit` (for throughput), and
    `problems(outputs)`, the check of one job's outputs.
    """

    name: str
    work_unit: str

    def make_job(self) -> Job:
        return Job(self.spec)


class CriteriaCsv(Workload):
    """The `criteria` command on a CSV draw matrix: CSV parsing dominates."""

    name = "criteria-csv"
    work_unit = "cells"
    S, n = 2000, 1000

    def __init__(self, seed: int, workdir: Path):
        y, a, lpd_at_mean = normal_mean_inputs(seed, self.S, self.n)
        path, out = workdir / "draws.csv", workdir / "criteria.json"
        write_matrix_csv(a, path)
        self.spec = {
            "cli": [["criteria", "--input", str(path), "--lpd-at-mean", repr(lpd_at_mean),
                     "--format", "json", "--output", str(out)]],
            "outputs": [str(out)],
            "pace": ["array", "parse"],  # parsing text into floats, then arrays
        }
        self.problems = CriteriaCheck(y, a).problems
        self.input_bytes = a.nbytes
        self.work_per_job = a.size


class CriteriaInMemory(Workload):
    """criterion_report on an in-memory matrix: the column-reduction kernel."""

    name = "criteria-inmem"
    work_unit = "cells"
    S, n = 20000, 1000

    def __init__(self, seed: int, workdir: Path):
        y, a, lpd_at_mean = normal_mean_inputs(seed, self.S, self.n)
        path = workdir / "draws.npy"
        np.save(path, a)
        self.matrix = a
        self.spec = {"matrix": str(path), "lpd_at_mean": lpd_at_mean}
        self.problems = CriteriaCheck(y, a).problems
        self.input_bytes = a.nbytes
        self.work_per_job = a.size

    def make_job(self) -> Job:
        return Job(self.spec, self.matrix)


class PaperTables(Workload):
    """The paper's two tables: `schools-table` then `election`."""

    name = "paper-tables"
    work_unit = "jobs"
    DRAWS = 100_000

    def __init__(self, seed: int, workdir: Path):
        outs = [workdir / "schools.json", workdir / "election.json"]
        self.spec = {
            "cli": [[cmd, "--format", "json", "--seed", str(seed), "--output", str(out)]
                    for cmd, out in zip(("schools-table", "election"), outs)],
            "outputs": [str(p) for p in outs],
        }
        self.input_bytes = self.DRAWS * 15 * 8
        self.work_per_job = 1
        self.problems = paper_tables_problems


class ExpectStudy(Workload):
    """The `expect` command at n = 100 with all 14 estimators."""

    name = "expect-study"
    work_unit = "replicate-points"
    R, n = 20_000, 100

    def __init__(self, seed: int, workdir: Path):
        out = workdir / "expect.json"
        self.spec = {
            "cli": [["expect", "--n", str(self.n), "-R", str(self.R), "--format", "json",
                     "--seed", str(seed), "--output", str(out)]],
            "outputs": [str(out)],
        }
        self.input_bytes = self.R * self.n * 8
        self.work_per_job = self.R * self.n
        self.problems = expect_problems


WORKLOADS = {w.name: w for w in (CriteriaCsv, CriteriaInMemory, PaperTables, ExpectStudy)}
