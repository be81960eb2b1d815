"""Layer wrappers for the benchmark's traced and memory passes.

predcrit has no spans of its own, so the benchmark wraps each layer's
public functions from outside. A wrapper is installed at every binding
site: modules that did `from .draws import lppd as lppd_of` hold their own
reference, so patching only the defining module would miss those calls.
`Patches.restore` puts every original back, so the timed pass runs
unwrapped code.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from typing import NamedTuple

ROOT_SPAN = "cli"


def _read_csv_counts(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (str, bytes, os.PathLike)):
        return {"draws.read_csv.bytes": os.path.getsize(source)}
    return {}


def _validated_cells(args, kwargs, result):
    return {"draws.validate.cells": args[0].values.size}


def _report_cells(args, kwargs, result):
    return {"criteria.report.cells": args[0].values.size}


def _scored_cells(args, kwargs, result):
    return {"models.score.cells": result.values.size}


def _folds(args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"loo.folds": len(data)}


def _replicate_points(args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    return {"expectation.replicate_points": plan.R * plan.n}


# (span name, defining module, attribute path, counter or None). A counter
# maps (args, kwargs, result) to {metric name: amount}. Counters and the
# `<span>.calls` count run only on the outermost span of a name, so a
# recursive call is counted once.
LAYERS = [
    ("draws.read_csv", "predcrit.draws", "read_loglik_csv", _read_csv_counts),
    ("draws.validate", "predcrit.draws", "PointwiseLogLikMatrix.__post_init__", _validated_cells),
    ("draws.lppd", "predcrit.draws", "lppd", None),
    ("draws.log_mean_exp", "predcrit.draws", "log_mean_exp", None),
    ("criteria.report", "predcrit.criteria", "criterion_report", _report_cells),
    ("models.fit", "predcrit.models.normal", "NormalMeanModel.fit", None),
    ("models.fit", "predcrit.models.regression", "RegressionModel.fit", None),
    ("models.fit", "predcrit.models.regression", "regression_fit", None),
    ("models.fit", "predcrit.models.schools", "SchoolsModel.fit", None),
    ("models.fit", "predcrit.models.schools", "schools_fit", None),
    ("models.score", "predcrit.models.normal", "_NormalMeanFit.pointwise_loglik", _scored_cells),
    ("models.score", "predcrit.models.regression", "_RegressionFit.pointwise_loglik", _scored_cells),
    ("models.score", "predcrit.models.schools", "_SchoolsFit.pointwise_loglik", _scored_cells),
    ("loo.report", "predcrit.loo", "loo_report", _folds),
    ("reports", "predcrit.reports", "schools_table_report", None),
    ("reports", "predcrit.reports", "election_report", None),
    ("expectation.study", "predcrit.expectation", "run_expectation_study", _replicate_points),
]


def _oracle_layers():
    oracle = importlib.import_module("predcrit.oracle")
    return [
        ("oracle", "predcrit.oracle", name, None)
        for name, fn in vars(oracle).items()
        if inspect.isfunction(fn) and fn.__module__ == oracle.__name__ and not name.startswith("_")
    ]


def all_layers():
    return LAYERS + _oracle_layers()


class Patches:
    """Every (owner, attribute, original) replaced, so all can be put back."""

    def __init__(self):
        self.saved = []

    def install(self, layers, make_wrapper):
        importlib.import_module("predcrit.cli")  # load every module that binds a layer
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "predcrit" or n.startswith("predcrit."))]
        for span, module_name, path, counter in layers:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[attr]
                self._replace(owner, attr, make_wrapper(span, original, counter))
                continue
            original = getattr(module, path)
            wrapper = make_wrapper(span, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, wrapper)

    def _replace(self, owner, attr, wrapper):
        self.saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self.saved)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int


class Tracer:
    """In-memory spans and counts; records only inside `job`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str, float]] = []
        self._job: int | None = None
        self._ids = itertools.count()
        self._job_ids = itertools.count()

    def run_job(self, fn):
        """Run fn() as the root span of the next job."""
        self._job = next(self._job_ids)
        try:
            return self._call(ROOT_SPAN, fn, (), {}, None)
        finally:
            self._job = None

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, counter)
        return wrapper

    def _call(self, name, fn, args, kwargs, counter):
        outermost = all(n != name for _, n, _ in self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((next(self._ids), name, time.perf_counter()))
        try:
            result = fn(*args, **kwargs)
        finally:
            sid, _, start = self._stack.pop()
            end = time.perf_counter()
            self.spans.append(Span(sid, name, start, end, parent, self._job))
        if outermost:
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, amount in counter(args, kwargs, result).items():
                    self.counts[key] += amount
        return result


def self_times(spans, job_factors=None) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    its direct children cover. Children of one span never overlap (one
    thread), so a same-name child nets out of its parent's self time.
    `job_factors[j]`, if given, multiplies the self times of job j's spans."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals = defaultdict(float)
    for s in spans:
        factor = job_factors[s.job] if job_factors is not None else 1.0
        totals[s.name] += ((s.end - s.start) - covered[s.id]) * factor
    return dict(totals)


class MemoryProbe:
    """Peak traced allocation above the level at entry, per frame.

    tracemalloc keeps one global peak, so opening a frame resets it; every
    reset first folds the current peak into all open frames, so nested
    frames each see the true peak over their own lifetime.
    """

    def __init__(self):
        self._frames: list[list[int]] = []
        self.layer_ratio: dict[str, float] = defaultdict(float)

    def _fold(self):
        peak = tracemalloc.get_traced_memory()[1]
        for frame in self._frames:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()

    def measure(self, fn, *args, **kwargs):
        """(result, peak bytes above entry) of fn(*args, **kwargs)."""
        self._fold()
        current = tracemalloc.get_traced_memory()[0]
        frame = [current, current]
        self._frames.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._fold()
            self._frames.remove(frame)
        return result, frame[1] - frame[0]

    def wrap(self, name, fn, matrix_of):
        """Wrapper recording the max over calls of peak / bytes of the call's matrix."""
        active = set()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in active or not tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            active.add(name)
            try:
                result, extra = self.measure(fn, *args, **kwargs)
            finally:
                active.discard(name)
            ratio = extra / matrix_of(args, kwargs, result).values.nbytes
            self.layer_ratio[name] = max(self.layer_ratio[name], ratio)
            return result
        return wrapper


# Same shape as LAYERS; the last field picks the matrix a call handles.
MEMORY_LAYERS = [
    ("draws.read_csv", "predcrit.draws", "read_loglik_csv", lambda args, kwargs, result: result),
    ("criteria.report", "predcrit.criteria", "criterion_report", lambda args, kwargs, result: args[0]),
]
