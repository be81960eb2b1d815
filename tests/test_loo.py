import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from test_models import REFITS

from predcrit import loo, oracle
from predcrit.draws import PointwiseLogLikMatrix, log_mean_exp, lppd
from predcrit.errors import ModelRefusalError, NonFiniteLogLikError
from predcrit.loo import loo_report
from predcrit.models import (
    EightSchoolsData,
    NormalMeanModel,
    RegressionData,
    RegressionModel,
    SchoolsModel,
    load_election_csv,
    load_schools_csv,
)
from predcrit.models.schools import _SchoolsFit
from predcrit.reports import election_report, schools_table_report
from predcrit.seeds import FOLD_STREAM, derive_seed

FLAT_N2_LPPD_LOO = -math.log(4 * math.pi) - 2.0  # y = (0, 2), unit-variance normal mean
FLAT_N2_LPPD_BAR = -math.log(4 * math.pi) - 1.0


def test_refit_loo_matches_flat_normal_closed_form():
    model = NormalMeanModel()
    y = np.array([0.0, 2.0])
    rep = loo_report(model, y, 0.0, draws=100_000, seed=321)
    total, per_point = rep.lppd_loo, rep.per_point
    assert len(per_point) == 2
    assert total == pytest.approx(FLAT_N2_LPPD_LOO, abs=0.02)
    bar = rep.lppd_bar_minus_i
    assert bar == pytest.approx(FLAT_N2_LPPD_BAR, abs=0.02)


def test_loo_report_identities_and_error_bars():
    model = NormalMeanModel()
    y = np.array([0.0, 2.0])
    fit = model.fit(y, draws=100_000, seed=5)
    full = lppd(fit.pointwise_loglik())
    rep = loo_report(model, y, full, draws=100_000, seed=321)
    assert rep.lppd_cloo == rep.lppd_loo + rep.b
    assert rep.p_loo == full - rep.lppd_loo
    # the two p_cloo definitions coincide through b
    assert rep.p_cloo == pytest.approx(full - rep.lppd_cloo, abs=1e-12)
    assert abs(rep.lppd_loo - FLAT_N2_LPPD_LOO) < 3 * rep.mc_se_lppd_loo + 1e-3


def test_single_draw_loo_has_no_error_bar():
    # one draw has no spread: its Monte Carlo error is unknown, not zero
    rep = loo_report(NormalMeanModel(), np.array([0.0, 2.0]), 0.0, draws=1, seed=3)
    assert rep.mc_se_lppd_loo is None


def test_loo_needs_two_points():
    with pytest.raises(ValueError, match="at least 2"):
        loo_report(NormalMeanModel(), np.array([1.0]), 0.0, draws=100, seed=0)


class _FixedPosteriorModel:
    """Every fold returns the same posterior; lppd_bar must equal the
    common full-data lppd. Each fold is its own object, as folds run
    concurrently."""

    def __init__(self, matrix):
        self.matrix = matrix

    def folds(self, data, *, draws, seed):
        return lambda i: _FixedPosterior(self, i)

    def column(self, exclude, j):
        """Column j of fold `exclude`."""
        return self.matrix.column(j)


class _FixedPosterior:
    def __init__(self, model, exclude):
        self.model = model
        self.exclude = exclude

    def pointwise_loglik(self):
        return self.model.matrix

    def loglik(self, j):
        return self.model.column(self.exclude, j)


class _RecordingModel(_FixedPosteriorModel):
    """A fixed posterior that records each draw of its folds, as "draw",
    and the point each fold leaves out."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.calls = []

    def folds(self, data, *, draws, seed):
        self.calls.append("draw")
        fold = super().folds(data, draws=draws, seed=seed)

        def recorded(i):
            self.calls.append(i)
            return fold(i)
        return recorded


class _NaNHeldOutModel(_FixedPosteriorModel):
    """A fixed posterior whose held-out column of point 1 has a NaN at draw 3."""

    def column(self, exclude, j):
        col = super().column(exclude, j).copy()
        if exclude == j == 1:
            col[3] = np.nan
        return col


def test_a_non_finite_heldout_column_is_refused_naming_draw_and_point():
    model = _NaNHeldOutModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)))
    with pytest.raises(NonFiniteLogLikError, match="at draw 3, point 1: nan"):
        loo_report(model, np.zeros(3), -3.0, draws=10, seed=1, bias_correction=False)


class _NonFiniteTrainingModel(_FixedPosteriorModel):
    """A fixed posterior whose fold 1 scores point 2 at `value` in draw 4."""

    def __init__(self, matrix, value):
        super().__init__(matrix)
        self.value = value

    def column(self, exclude, j):
        col = super().column(exclude, j).copy()
        if (exclude, j) == (1, 2):
            col[4] = self.value
        return col


@pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
def test_a_non_finite_training_column_is_refused_naming_draw_and_point(value):
    # the bias correction's own reduction of a training column refuses what log_mean_exp refuses
    model = _NonFiniteTrainingModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)), value)
    with pytest.raises(NonFiniteLogLikError, match=f"^non-finite log density at draw 4, point 2: {value}$"):
        loo_report(model, np.zeros(3), -3.0, draws=10, seed=1)
    assert loo_report(model, np.zeros(3), -3.0, draws=10, seed=1, bias_correction=False).lppd_loo == -3.0


def test_a_fold_whose_column_is_wider_than_the_float_range_runs_without_a_warning():
    # -1e308 - lme overflows to -inf in the fold's ratios exp(col - lme), whose 0 is right
    vals = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]])
    model = _FixedPosteriorModel(PointwiseLogLikMatrix(vals))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = loo_report(model, np.zeros(2), 1e308, draws=3, seed=1, bias_correction=False)
    assert rep.per_point == [1e308, 0.0]
    # ratios (1, 0, 0) and (1, 1, 1): variances 1/3 and 0 over 3 draws
    assert rep.mc_se_lppd_loo == pytest.approx(1 / 3, rel=1e-15)


@pytest.mark.parametrize("value, bias_correction, field", [
    (1e308, True, "lppd_loo"), (1e308, False, "lppd_loo"), (5e307, True, "lppd_bar_minus_i"),
])
def test_a_loo_report_that_overflows_is_refused_naming_the_field(value, bias_correction, field):
    # three points scoring 1e308 each pass the float range in lppd_loo and in every fold's sum;
    # at 5e307 both stay finite, and only the mean of the three fold sums overflows
    model = _FixedPosteriorModel(PointwiseLogLikMatrix(np.full((4, 3), value)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteLogLikError, match=f"^{field} is inf: the log densities overflow"):
            loo_report(model, np.zeros(3), 1.0, draws=4, seed=1, bias_correction=bias_correction)


class _HeldOutRecordingModel(_FixedPosteriorModel):
    """A fixed posterior that records (left-out point, scored point) of
    each `loglik` call."""

    def __init__(self, matrix):
        super().__init__(matrix)
        self.scored = []

    def column(self, exclude, j):
        self.scored.append((exclude, j))
        return super().column(exclude, j)


@pytest.mark.parametrize("bias_correction", [True, False])
def test_every_fold_scores_its_point_with_heldout_loglik_once(bias_correction):
    model = _HeldOutRecordingModel(PointwiseLogLikMatrix(np.full((10, 4), -1.0)))
    loo_report(model, np.zeros(4), -4.0, draws=10, seed=1, bias_correction=bias_correction)
    # folds run concurrently, so the calls come in no fixed order
    assert sorted(i for i, j in model.scored if i == j) == [0, 1, 2, 3]
    # the correction scores every other point once, reusing the held-out column
    others = sorted((i, j) for i, j in model.scored if i != j)
    assert others == ([(i, j) for i in range(4) for j in range(4) if i != j] if bias_correction else [])


class _NaNOtherPointModel(_FixedPosteriorModel):
    """A fixed posterior whose column of point 2, scored by fold 0's bias
    correction, has a NaN at draw 5."""

    def column(self, exclude, j):
        col = super().column(exclude, j).copy()
        if (exclude, j) == (0, 2):
            col[5] = np.nan
        return col


def test_a_non_finite_column_of_the_correction_is_refused_naming_draw_and_point():
    model = _NaNOtherPointModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)))
    with pytest.raises(NonFiniteLogLikError, match="at draw 5, point 2: nan"):
        loo_report(model, np.zeros(3), -3.0, draws=10, seed=1)


def test_a_finite_column_is_scanned_for_nan_and_inf_once(monkeypatch):
    """`log_mean_exp` refuses a non-finite column itself, so the blockwise
    scan that names the draw and the point runs only after it has."""
    scans = []
    monkeypatch.setattr(loo, "_require_finite_loglik", lambda *args, **kwargs: scans.append(args))
    loo_report(NormalMeanModel(), np.array([0.0, 2.0, 1.0]), -4.0, draws=100, seed=1)
    assert scans == []


# ---------------------------------------------------------------------------
# concurrent folds: the worker count changes nothing
# ---------------------------------------------------------------------------

def _workers(monkeypatch, count):
    monkeypatch.setattr(loo, "_available_cpus", lambda: count)


@pytest.mark.parametrize("bias_correction", [True, False])
@pytest.mark.parametrize("name", list(REFITS))
def test_loo_report_is_bitwise_the_same_with_one_worker_and_with_n(monkeypatch, name, bias_correction):
    """One worker against n, the threads switching every 10 us; with the
    correction the hierarchical folds share one lazy draw of the effects."""
    model, data = REFITS[name]
    reports = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for count in (1, len(data)):
            _workers(monkeypatch, count)
            rep = loo_report(model, data, -10.0, draws=2_000, seed=8, bias_correction=bias_correction)
            reports.append(repr(rep.to_dict()))  # a float's repr round-trips its bits
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1]


class _TwoFailingFoldsModel(_FixedPosteriorModel):
    """Folds 2 and 4 raise different errors; with `wait`, fold 2 raises
    only after fold 4 has."""

    def __init__(self, matrix, wait):
        super().__init__(matrix)
        self.wait = wait
        self.fold_4_raised = threading.Event()

    def folds(self, data, *, draws, seed):
        fold = super().folds(data, draws=draws, seed=seed)

        def failing(i):
            if i == 4:
                self.fold_4_raised.set()
                raise ModelRefusalError("fold 4 cannot be fitted")
            if i == 2:
                if self.wait:
                    assert self.fold_4_raised.wait(timeout=30)
                raise ValueError("fold 2 cannot be fitted")
            return fold(i)
        return failing


@pytest.mark.parametrize("count", [1, 2, 6])
def test_the_lowest_numbered_failing_fold_raises_whichever_fails_first(monkeypatch, count):
    _workers(monkeypatch, count)
    model = _TwoFailingFoldsModel(PointwiseLogLikMatrix(np.full((10, 6), -1.0)), wait=count > 1)
    with pytest.raises(ValueError, match="fold 2 cannot be fitted"):
        loo_report(model, np.zeros(6), -6.0, draws=10, seed=1)


# ---------------------------------------------------------------------------
# coupled folds: one draw of the shared numbers, and the joint error
# ---------------------------------------------------------------------------

class _CountingGenerator(np.random.Generator):
    """numpy's generator for `seed`, counting the numbers it draws."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def _counted(self, values):
        self.drawn += np.size(values)
        return values

    def random(self, *args, **kwargs):
        return self._counted(super().random(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._counted(super().standard_normal(*args, **kwargs))

    def chisquare(self, *args, **kwargs):
        return self._counted(super().chisquare(*args, **kwargs))


class _DrawCountingModel:
    """A built-in model whose folds draw from a `_CountingGenerator`, one
    per `folds` call, kept in `generators`."""

    def __init__(self, model):
        self.model = model
        self.generators = []

    def folds(self, data, *, draws, seed):
        self.generators.append(_CountingGenerator(seed))
        return self.model.folds(data, draws=draws, seed=self.generators[-1])


# the numbers a fold posterior transforms, per draw: a normal; a chi-square
# value and two normals; a normal; a uniform for tau and a normal for mu
_SHARED_PER_DRAW = {"normal-mean-m1": 1, "regression": 3, "schools-complete-pooling": 1,
                    "schools-existing-groups": 2, "schools-new-groups": 2, "schools-pinned-tau": 2}


@pytest.mark.parametrize("bias_correction", [True, False])
@pytest.mark.parametrize("name", list(_SHARED_PER_DRAW))
def test_one_loo_report_draws_its_fold_numbers_once(name, bias_correction):
    model, data = REFITS[name]
    counting = _DrawCountingModel(model)
    rep = loo_report(counting, data, -10.0, draws=500, seed=4, bias_correction=bias_correction)
    [rng] = counting.generators
    # the correction scores a hierarchical training school at its effect: S x J normals, drawn once for all folds
    effects = 500 * len(data) if bias_correction and name in ("schools-existing-groups", "schools-pinned-tau") else 0
    assert rng.drawn == 500 * _SHARED_PER_DRAW[name] + effects
    # the generator numpy makes of the seed draws the same numbers
    direct = loo_report(model, data, -10.0, draws=500, seed=4, bias_correction=bias_correction)
    assert repr(rep.to_dict()) == repr(direct.to_dict())


def test_a_no_pooling_loo_is_refused_before_anything_is_drawn():
    counting = _DrawCountingModel(SchoolsModel("no_pooling"))
    with pytest.raises(ModelRefusalError, match="no distribution for an unobserved group"):
        loo_report(counting, load_schools_csv(), 0.0, draws=500, seed=1)
    assert [rng.drawn for rng in counting.generators] == [0]
    # folds a model cannot form are refused the same way: a regression fold of 3 points has no
    # proper sigma^2 posterior, and one school leaves no training group (loo_report refuses n < 2 itself)
    elections = load_election_csv()
    counting = _DrawCountingModel(RegressionModel())
    with pytest.raises(ValueError, match="^too few training points for a proper sigma\\^2 posterior$"):
        loo_report(counting, RegressionData(elections.x[:4], elections.y[:4]), 0.0, draws=500, seed=1)
    assert [rng.drawn for rng in counting.generators] == [0]
    # a fold whose training points lie exactly on a line has RSS 0, and no sigma^2 posterior
    counting = _DrawCountingModel(RegressionModel())
    with pytest.raises(ValueError, match="^the rows other than row 5 lie exactly on a line, "):
        loo_report(counting, RegressionData(np.arange(1.0, 6.0), np.arange(2.0, 12.0, 2.0)), 0.0, draws=500, seed=1)
    assert [rng.drawn for rng in counting.generators] == [0]
    counting = _DrawCountingModel(SchoolsModel())
    with pytest.raises(ValueError, match="^training set must contain at least one group$"):
        counting.folds(EightSchoolsData([28.0], [15.0]), draws=500, seed=1)
    assert [rng.drawn for rng in counting.generators] == [0]


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("m", [0.0, 1.3])
def test_normal_mean_loo_is_within_4_joint_errors_of_the_closed_form(m, seed):
    y = np.random.default_rng(20).normal(0.4, 1.0, size=20)
    rep = loo_report(NormalMeanModel(m=m, mu0=0.5), y, 0.0, draws=4_000, seed=seed, bias_correction=False)
    want, _ = oracle.loo_quantities(y, m=m, mu0=0.5)
    assert abs(rep.lppd_loo - want) < 4 * rep.mc_se_lppd_loo


def test_the_joint_error_of_lppd_loo_is_calibrated():
    """Over 120 seeds of one normal-mean dataset (n = 20, S = 2000) the
    spread of lppd_loo is the mean reported error. The folds' errors
    summed as if independent would read about 13x too large."""
    y = np.random.default_rng(21).normal(size=20)
    reps = [loo_report(NormalMeanModel(m=1.0), y, 0.0, draws=2_000, seed=seed, bias_correction=False)
            for seed in range(120)]
    ratio = np.std([r.lppd_loo for r in reps], ddof=1) / np.mean([r.mc_se_lppd_loo for r in reps])
    assert 0.8 <= ratio <= 1.25, ratio


def test_election_joint_error_is_under_half_the_summed_fold_errors():
    """`election` at 4000 draws: the same folds' errors, summed in
    quadrature as if independent, are more than twice the joint error."""
    data, draws = load_election_csv(), 4_000
    joint = election_report(data, draws=draws, seed=12345, dic_parameterization="log_sigma")["loo"]["mc_se_lppd_loo"]
    fold = RegressionModel().folds(data, draws=draws, seed=derive_seed(12345, FOLD_STREAM))
    summed_sq = 0.0
    for i in range(len(data)):
        col = fold(i).loglik(i)
        summed_sq += np.exp(col - log_mean_exp(col)).var(ddof=1) / draws
    assert joint <= math.sqrt(summed_sq) / 2, (joint, math.sqrt(summed_sq))


# One fixed posterior whose folds take 0-8 ms, so later folds often finish
# before earlier ones and wait for their row; one worker against four, more
# than the cores, the threads switching every 10 us.
_UNEVEN_FOLDS = """
import sys, time
import numpy as np
from predcrit import loo
from predcrit.draws import PointwiseLogLikMatrix

class Uneven:
    def __init__(self, matrix):
        self.matrix = matrix

    def folds(self, data, *, draws, seed):
        def fold(i):
            time.sleep(0.002 * (i * 7 % 5))
            return self
        return fold

    def loglik(self, j):
        return self.matrix.column(j)

sys.setswitchinterval(1e-5)
mat = PointwiseLogLikMatrix(np.random.default_rng(5).normal(-2, 1, size=(50, 24)))
for count in (1, 4):
    loo._available_cpus = lambda: count
    print(repr(loo.loo_report(Uneven(mat), np.zeros(24), -50.0, draws=50, seed=1).to_dict()))
"""


def test_folds_finishing_out_of_order_are_added_in_fold_order():
    """Bitwise the same report with one worker and with four. In a child
    process, so that folds waiting for a row that is never freed fail the
    test within a minute: the pool's threads would keep this one alive."""
    src = str(Path(loo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", _UNEVEN_FOLDS], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    one, four = proc.stdout.splitlines()
    assert one == four


def test_no_fold_holds_an_s_by_n_matrix(monkeypatch):
    """The tracemalloc peak of a bias-corrected LOO does not grow with n:
    at S = 100000 an S x 45 matrix is 24 MB more than an S x 15 one. One
    worker, so that concurrent folds cannot overlap their peaks by chance."""
    _workers(monkeypatch, 1)
    base = load_election_csv()

    def peak(copies):
        data = RegressionData(np.tile(base.x, copies), np.tile(base.y, copies))
        tracemalloc.start()
        try:
            loo_report(RegressionModel(), data, -40.0 * copies, draws=100_000, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the first call also allocates what the process keeps after it
    assert abs(peak(3) - peak(1)) < 1 << 20


def test_without_bias_correction_loo_fields_match_and_the_corrected_ones_are_none():
    rng = np.random.default_rng(4)
    mat = PointwiseLogLikMatrix(rng.normal(-2, 1, size=(64, 5)))
    full = loo_report(_FixedPosteriorModel(mat), np.zeros(5), -9.0, draws=64, seed=1)
    short = loo_report(_FixedPosteriorModel(mat), np.zeros(5), -9.0, draws=64, seed=1,
                       bias_correction=False)
    assert short.per_point == full.per_point
    assert (short.lppd_loo, short.p_loo, short.mc_se_lppd_loo) == (
        full.lppd_loo, full.p_loo, full.mc_se_lppd_loo)
    assert short.lppd_bar_minus_i is short.b is short.lppd_cloo is short.p_cloo is None


@pytest.mark.parametrize("lppd_full", [math.nan, math.inf])
def test_non_finite_full_lppd_is_refused_before_any_refit(lppd_full):
    model = _RecordingModel(PointwiseLogLikMatrix(np.full((10, 3), -1.0)))
    with pytest.raises(ValueError, match="finite"):
        loo_report(model, np.zeros(3), lppd_full, draws=10, seed=1)
    assert model.calls == []


def test_identical_fold_posteriors_reduce_bar_to_common_lppd():
    rng = np.random.default_rng(17)
    mat = PointwiseLogLikMatrix(rng.normal(-2, 1, size=(64, 5)))
    model = _FixedPosteriorModel(mat)
    bar = loo_report(model, np.zeros(5), 0.0, draws=64, seed=1).lppd_bar_minus_i
    assert bar == pytest.approx(lppd(mat), rel=1e-13)


def test_fold_order_independence_bitwise():
    model = NormalMeanModel(m=0.5, mu0=1.0)
    rng = np.random.default_rng(99)
    y = rng.normal(0.5, 1.0, size=6)
    rep = loo_report(model, y, 0.0, draws=5_000, seed=777)
    total, per_point = rep.lppd_loo, rep.per_point
    # recompute folds in scrambled order from one draw of the shared numbers
    fold = model.folds(y, draws=5_000, seed=777)
    scrambled = {}
    for i in (3, 0, 5, 2, 4, 1):
        scrambled[i] = log_mean_exp(fold(i).pointwise_loglik().column(i))
    assert [scrambled[i] for i in range(6)] == per_point
    total2 = loo_report(model, y, 0.0, draws=5_000, seed=777).lppd_loo
    assert total2 == total


@pytest.mark.parametrize("name", ["regression", "schools-existing-groups"])
def test_a_fold_scores_each_point_as_lppd_of_its_one_column_matrix_bitwise(name):
    model, data = REFITS[name]
    fit = model.folds(data, draws=100_000, seed=9)(1)
    for i in range(len(data)):
        assert log_mean_exp(fit.loglik(i)) == lppd(PointwiseLogLikMatrix(fit.loglik(np.array([i])))), i


def test_derived_seeds_are_distinct_and_deterministic():
    seeds = [derive_seed(12345, i) for i in range(200)]
    assert len(set(seeds)) == 200
    assert seeds == [derive_seed(12345, i) for i in range(200)]
    assert derive_seed(1, 0) != derive_seed(2, 0)
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_no_pooling_refusal_propagates_through_loo():
    with pytest.raises(ModelRefusalError, match="model cannot predict held-out point"):
        loo_report(SchoolsModel("no_pooling"), load_schools_csv(), 0.0, draws=500, seed=1)


# ---------------------------------------------------------------------------
# schools LOO against an independent numpy reference
# ---------------------------------------------------------------------------

def _normal_logpdf(x, mean, var):
    return -0.5 * np.log(2 * np.pi * var) - (x - mean) ** 2 / (2 * var)


def _complete_pooling_reference(data):
    """sum_i log N(y_i | mean_post(-i), v_post(-i) + sigma_i^2)."""
    total = 0.0
    for i in range(len(data)):
        y, sigma = np.delete(data.y, i), np.delete(data.sigma, i)
        v_post = 1.0 / (1.0 / sigma**2).sum()
        mean_post = v_post * (y / sigma**2).sum()
        total += _normal_logpdf(data.y[i], mean_post, v_post + data.sigma[i] ** 2)
    return total


def _hierarchical_reference(data):
    """sum_i log sum_g p(tau_g | y(-i)) N(y_i | mu_hat(tau_g), V_mu(tau_g) + tau_g^2 + sigma_i^2)
    over the fold sampler's own tau grid, with the grid posterior recomputed here."""
    total = 0.0
    for i in range(len(data)):
        grid = SchoolsModel().folds(data, draws=1, seed=0)(i).tau_grid
        y, sigma = np.delete(data.y, i), np.delete(data.sigma, i)
        var = sigma[None, :] ** 2 + grid[:, None] ** 2
        v_mu = 1.0 / (1.0 / var).sum(axis=1)
        mu_hat = v_mu * (y / var).sum(axis=1)
        log_post = (0.5 * np.log(v_mu) - 0.5 * np.log(var).sum(axis=1)
                    - 0.5 * ((y - mu_hat[:, None]) ** 2 / var).sum(axis=1))
        mass = np.exp(log_post - log_post.max())
        mass /= mass.sum()
        dens = np.exp(_normal_logpdf(data.y[i], mu_hat, v_mu + grid**2 + data.sigma[i] ** 2))
        total += math.log((mass * dens).sum())
    return total


@pytest.mark.parametrize("seed", [3, 2024])
@pytest.mark.parametrize("mode", ["complete_pooling", "hierarchical"])
def test_schools_loo_matches_an_independent_reference(mode, seed):
    data = load_schools_csv()
    draws = 40_000
    rep = loo_report(SchoolsModel(mode), data, 0.0, draws=draws, seed=seed, bias_correction=False)
    ref = (_complete_pooling_reference(data) if mode == "complete_pooling"
           else _hierarchical_reference(data))
    assert abs(rep.lppd_loo - ref) < 4 * rep.mc_se_lppd_loo


def test_schools_table_scores_only_its_three_full_data_fits(monkeypatch):
    calls = []
    original = _SchoolsFit.pointwise_loglik

    def counting(fit):
        calls.append(fit._model.mode)
        return original(fit)

    monkeypatch.setattr(_SchoolsFit, "pointwise_loglik", counting)
    schools_table_report(load_schools_csv(), draws=500, seed=5)
    assert calls == ["no_pooling", "complete_pooling", "hierarchical"]
