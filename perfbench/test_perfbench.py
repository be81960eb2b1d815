"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import MemoryProbe, Patches, Span, Tracer, all_layers, self_times  # noqa: E402
from workloads import CriteriaCheck, Job, normal_mean_inputs, write_matrix_csv  # noqa: E402

import predcrit  # noqa: E402
from predcrit import cli, criteria, draws, loo, reports  # noqa: E402
from predcrit.criteria import criterion_report  # noqa: E402
from predcrit.draws import PointwiseLogLikMatrix  # noqa: E402


def test_self_times_net_out_children_and_recursion():
    spans = [
        Span(0, "cli", 0.0, 10.0, None, 0),
        Span(1, "draws.read_csv", 1.0, 7.0, 0, 0),
        Span(2, "draws.read_csv", 2.0, 6.0, 1, 0),  # recursive call on the opened file
        Span(3, "draws.validate", 5.0, 5.5, 2, 0),
        Span(4, "criteria.report", 7.0, 9.0, 0, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({
        "cli": 10.0 - 6.0 - 2.0,
        "draws.read_csv": (6.0 - 4.0) + (4.0 - 0.5),
        "draws.validate": 0.5,
        "criteria.report": 2.0,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_self_times_scale_each_job_by_its_own_factor():
    spans = [
        Span(0, "cli", 0.0, 4.0, None, 0),
        Span(1, "criteria.report", 1.0, 4.0, 0, 0),
        Span(2, "cli", 4.0, 6.0, None, 1),
        Span(3, "criteria.report", 4.5, 6.0, 2, 1),
    ]
    got = self_times(spans, [0.5, 2.0])
    assert got == pytest.approx({"cli": 1.0 * 0.5 + 0.5 * 2.0, "criteria.report": 3.0 * 0.5 + 1.5 * 2.0})


def test_scale_reads_wall_time_at_the_reference_pace():
    assert pace.scale(3.0, 1.0, 1.0) == pytest.approx(3.0)
    # a host running at half speed doubles both the job and the calibration
    assert pace.scale(6.0, 2.0, 2.0) == pytest.approx(3.0)
    assert pace.scale(3.0, 1.0, 3.0) == pytest.approx(1.5)
    assert 0.0 < pace.pace(("array", "parse")) < 100.0


def test_tracer_counts_recursive_read_once(tmp_path):
    _, a, _ = normal_mean_inputs(1, 30, 4)
    path = tmp_path / "m.csv"
    write_matrix_csv(a, path)
    tracer, patches = Tracer(), Patches()
    patches.install(all_layers(), tracer.wrap)
    try:
        tracer.run_job(lambda: criteria.criterion_report(draws.read_loglik_csv(path)))
        tracer.run_job(lambda: criteria.criterion_report(draws.read_loglik_csv(path)))
    finally:
        patches.restore()
    names = [s.name for s in tracer.spans]
    assert names.count("draws.read_csv") == 4
    assert tracer.counts["draws.read_csv.calls"] == 2
    assert tracer.counts["draws.read_csv.bytes"] == 2 * path.stat().st_size
    assert tracer.counts["draws.validate.cells"] == 2 * a.size
    assert tracer.counts["criteria.report.cells"] == 2 * a.size
    roots = [s for s in tracer.spans if s.name == tracing.ROOT_SPAN]
    assert [r.job for r in roots] == [0, 1] and all(r.parent is None for r in roots)
    assert {s.job for s in tracer.spans} == {0, 1}
    assert sum(self_times(tracer.spans).values()) == pytest.approx(sum(r.end - r.start for r in roots))


def test_tracer_sees_the_in_memory_job():
    _, a, lpd_at_mean = normal_mean_inputs(2, 50, 6)
    job = Job({"matrix": "unused", "lpd_at_mean": lpd_at_mean}, a)
    tracer, patches = Tracer(), Patches()
    patches.install(all_layers(), tracer.wrap)
    try:
        tracer.run_job(job.run)
    finally:
        patches.restore()
    assert tracer.counts["criteria.report.calls"] == 1
    assert tracer.counts["draws.validate.calls"] == 1


def test_wrappers_restored_after_traced_pass():
    sites = [(cli, "read_loglik_csv"), (draws, "read_loglik_csv"), (predcrit, "read_loglik_csv"),
             (reports, "criterion_report"), (criteria, "criterion_report"), (loo, "lppd_of"),
             (loo, "log_mean_exp"), (PointwiseLogLikMatrix, "__post_init__")]
    before = [vars(owner)[attr] for owner, attr in sites]
    tracer, patches = Tracer(), Patches()
    patches.install(all_layers(), tracer.wrap)
    try:
        assert all(vars(owner)[attr] is not orig for (owner, attr), orig in zip(sites, before))
        assert not patches.restored()
    finally:
        patches.restore()
    assert patches.restored()
    assert all(vars(owner)[attr] is orig for (owner, attr), orig in zip(sites, before))
    PointwiseLogLikMatrix(np.zeros((2, 2)))
    assert tracer.spans == []


def test_memory_probe_nested_frames_see_their_own_peak():
    probe = MemoryProbe()
    tracemalloc.start()
    try:
        def inner():
            big = np.ones(1_000_000)
            del big

        def outer():
            keep = np.ones(500_000)
            _, inner_extra = probe.measure(inner)
            return keep, inner_extra

        (keep, inner_extra), outer_extra = probe.measure(outer)
    finally:
        tracemalloc.stop()
    assert inner_extra >= 8_000_000
    assert outer_extra >= 12_000_000 > inner_extra


class _SmallCriteria:
    def __init__(self):
        y, a, self.lpd_at_mean = normal_mean_inputs(5, 400, 20)
        self.a = a
        self.check = CriteriaCheck(y, a)

    def output(self) -> bytes:
        return criterion_report(PointwiseLogLikMatrix(self.a), lpd_at_mean=self.lpd_at_mean).to_json().encode()

    def problems(self, outputs):
        return self.check.problems(outputs)


def test_correct_output_passes_and_corrupted_outputs_fail():
    wl = _SmallCriteria()
    good = wl.output()
    tally = run.Tally(wl)
    tally.record(None, [good])
    tally.record(None, [good])
    assert (tally.attempted, tally.failed) == (2, 0)

    shifted = json.loads(good)
    shifted["lppd"] += 1e-3
    for corrupt in (json.dumps(shifted).encode(), good[: len(good) // 2], b""):
        tally.record(None, [corrupt])
    tally.record(RuntimeError("boom"), None)
    assert (tally.attempted, tally.failed) == (6, 4)


def test_output_differing_from_first_job_fails():
    wl = _SmallCriteria()
    good = wl.output()
    tally = run.Tally(wl)
    tally.record(None, [good])
    reindented = json.dumps(json.loads(good), indent=4).encode()
    tally.record(None, [reindented])
    assert tally.failed == 1


def test_failed_job_is_counted_not_dropped():
    class Raises(Job):
        def run(self):
            raise ValueError("bad input")

    tally = run.Tally(_SmallCriteria())
    walls, times = run.timed_loop(Raises({"cli": [], "outputs": []}), tally, seconds=0.0)
    assert len(walls) == len(times) == 1 and (tally.attempted, tally.failed) == (1, 1)


def test_missing_output_is_a_failed_job(tmp_path):
    job = Job({"cli": [], "outputs": [str(tmp_path / "never-written.json")]})
    tally = run.Tally(_SmallCriteria())
    run.run_checked(job, tally)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_tail_percentile_keeps_ten_jobs_beyond():
    times = [float(i) for i in range(1, 26)]
    value, pct, beyond = run.tail(times)
    assert value == 15.0 and beyond == 10 and pct == pytest.approx(60.0)
    assert sum(t > value for t in times) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail(times[:20]) == (20.0, 100.0, 0)


def test_setup_probe_peak_leaves_out_the_launching_process(tmp_path):
    # this process holds pace.py's buffers (64 MB); a small job's peak must not include them
    _, a, lpd_at_mean = normal_mean_inputs(1, 30, 4)
    np.save(tmp_path / "m.npy", a)
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"matrix": str(tmp_path / "m.npy"), "lpd_at_mean": lpd_at_mean}))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(BENCH.parent / "src"), str(spec)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 0 <= probe["peak_extra_bytes"] < 16 * 2**20


def test_run_refuses_without_predcrit_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "expect-study",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
