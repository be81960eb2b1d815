"""predcrit benchmark: one run of one workload.

    python3 perfbench/run.py --workload criteria-csv --seed 1 --seconds 10 --trace 0

Run from anywhere; predcrit is imported from `src/` beside this directory,
never from an installed copy. One process, one compute thread, closed loop
with one client: each job starts when the previous one ends.

Every job's wall time is divided by the host's pace, timed with a fixed
calibration just before and just after the job (pace.py), so the timings
read in seconds at a fixed reference pace: the shared host's speed phases
would otherwise swamp any change to the program.

--trace 0 reports the end-to-end metrics (tracing off). --trace 1 spends
half of --seconds untraced and half with every layer wrapped, and reports
per-layer self times, counts, peak memory and the tracing overhead; its
spans go to .bench_work/traces/. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""
import os

# One compute thread: the BLAS and OpenMP pools are sized when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

from pace import pace, scale  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "job_s": "s",
    "job_s_tail": "s",
    "throughput": "items/s",
    "peak_mem_x": "ratio",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.self_s": "s",
    "draws.read_csv.self_s": "s",
    "draws.read_csv.bytes": "bytes",
    "draws.read_csv.peak_mem_x": "ratio",
    "draws.validate.self_s": "s",
    "draws.validate.calls": "count",
    "draws.validate.cells": "count",
    "draws.lppd.self_s": "s",
    "draws.lppd.calls": "count",
    "draws.log_mean_exp.self_s": "s",
    "draws.log_mean_exp.calls": "count",
    "criteria.report.self_s": "s",
    "criteria.report.calls": "count",
    "criteria.report.ns_per_cell": "ns/cell",
    "criteria.report.peak_mem_x": "ratio",
    "models.fit.self_s": "s",
    "models.fit.calls": "count",
    "models.score.self_s": "s",
    "models.score.calls": "count",
    "models.score.cells": "count",
    "loo.report.self_s": "s",
    "loo.folds": "count",
    "reports.self_s": "s",
    "expectation.study.self_s": "s",
    "expectation.replicate_points": "count",
    "oracle.self_s": "s",
    "oracle.calls": "count",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}


class Tally:
    """Attempted and failed jobs. A job fails when it raises, exits
    non-zero, fails its workload's check, or its output differs from the
    first job's (every job of a run has the same inputs)."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.first_outputs = None
        self.messages = []

    def record(self, error, outputs) -> None:
        self.attempted += 1
        problems = [f"job raised {error!r}"] if error is not None else self.problems(outputs)
        if problems:
            self.failed += 1
            self.messages.extend(problems[:3])

    def problems(self, outputs):
        try:
            found = self.workload.problems(outputs)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return [f"unreadable output: {exc!r}"]
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            found.append("output differs from the first job's")
        return found


def run_checked(job, tally, run=None) -> tuple[float, float]:
    """Run one job: (wall seconds, seconds scaled to the reference pace).
    The host's pace is timed just before and just after the job; the check
    runs after both."""
    gc.collect()
    error = None
    before = pace(job.calibration)
    start = time.perf_counter()
    try:
        (run or (lambda fn: fn()))(job.run)
    except Exception as exc:  # any failure of the program is a failed job
        error = exc
    elapsed = time.perf_counter() - start
    after = pace(job.calibration)
    outputs = None
    if error is None:
        try:
            outputs = job.outputs()
        except OSError as exc:  # an output the job should have written is missing
            error = exc
    tally.record(error, outputs)
    return elapsed, scale(elapsed, before, after)


def timed_loop(job, tally, seconds, run=None) -> tuple[list[float], list[float]]:
    """Jobs back to back until `seconds` have passed: each job's wall
    seconds, and each job's seconds scaled to the reference pace."""
    walls, times = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        wall, scaled = run_checked(job, tally, run)
        walls.append(wall)
        times.append(scaled)
    return walls, times


def tail(times):
    """(value, percentile, jobs beyond): the highest percentile with at
    least TAIL_BEYOND jobs above it. With fewer than 2 x TAIL_BEYOND + 1
    jobs that percentile would not lie above the median, so the slowest
    job is reported instead (p100, none beyond)."""
    ordered = sorted(times)
    if len(ordered) <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), TAIL_BEYOND


def memory_pass(workload, job, tally):
    """One untimed job under tracemalloc, which slows Python-object-heavy
    code several times over: (job peak / input bytes, {layer: peak / bytes
    of the matrix the layer handled}, wrappers restored)."""
    from tracing import MEMORY_LAYERS, MemoryProbe, Patches

    probe, patches = MemoryProbe(), Patches()
    patches.install(MEMORY_LAYERS, probe.wrap)
    gc.collect()
    tracemalloc.start()
    error, extra = None, 0
    try:
        _, extra = probe.measure(job.run)
    except Exception as exc:  # recorded as a failed job
        error = exc
    finally:
        tracemalloc.stop()
        patches.restore()
    tally.record(error, None if error else job.outputs())
    return extra / workload.input_bytes, dict(probe.layer_ratio), patches.restored()


def setup_pass(job, workdir, tally):
    """Import plus first cold job, each in a fresh process: (seconds
    scaled to the reference pace, peak extra resident bytes during the
    job) per process. The pace is timed here, around each process."""
    spec_path = workdir / "job.json"
    spec_path.write_text(json.dumps(job.spec))
    times, peaks = [], []
    for _ in range(SETUP_PROBES):
        before = pace(job.calibration)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), str(spec_path)],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        after = pace(job.calibration)
        if proc.returncode != 0:
            tally.record(RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr[-500:]}"), None)
            continue
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(scale(probe["import_s"] + probe["job_s"], before, after))
        peaks.append(probe["peak_extra_bytes"])
        tally.record(None, [o.encode() for o in probe["outputs"]])
    return times, peaks


def end_to_end(workload, job, tally, seconds, workdir):
    setup, peaks = setup_pass(job, workdir, tally)
    if not setup:
        raise RuntimeError("no setup probe finished: " + "; ".join(tally.messages))
    peak_x = statistics.median(peaks) / workload.input_bytes
    run_checked(job, tally)  # warm-up: lazy imports and first-touch allocations
    walls, times = timed_loop(job, tally, seconds)
    tail_s, tail_pct, beyond = tail(times)
    metrics = {
        "job_s": statistics.median(times),
        "job_s_tail": tail_s,
        "throughput": workload.work_per_job * len(times) / sum(times),
        "peak_mem_x": peak_x,
        "setup_s": statistics.median(setup),
    }
    host_pace = statistics.median(w / t for w, t in zip(walls, times))
    print(f"job_s {metrics['job_s']:.4f} s  (median of {len(times)} jobs at the reference pace;"
          f" wall median {statistics.median(walls):.4f} s, host pace median {host_pace:.3f})")
    print(f"job_s_tail {tail_s:.4f} s  (p{tail_pct:.0f}: {beyond} of {len(times)} jobs beyond)")
    print(f"throughput {metrics['throughput']:.6g} {workload.work_unit}/s")
    print(f"peak_mem_x {peak_x:.3f}  (median resident peak above the pre-job level over the"
          f" set-up processes, / {workload.input_bytes} input bytes)")
    print(f"setup_s {metrics['setup_s']:.4f} s  (median of {len(setup)} fresh processes;"
          f" each {', '.join(f'{t:.3f}' for t in setup)})")
    return metrics, True


def traced(workload, job, tally, seconds, trace_path):
    from tracing import Patches, Tracer, all_layers, self_times

    peak_x, layer_peaks, mem_restored = memory_pass(workload, job, tally)
    print(f"tracemalloc peak of one job {peak_x:.3f} x {workload.input_bytes} input bytes")
    _, untraced = timed_loop(job, tally, seconds / 2)
    tracer, patches = Tracer(), Patches()
    patches.install(all_layers(), tracer.wrap)
    try:
        walls, jobs = timed_loop(job, tally, seconds / 2, run=tracer.run_job)
    finally:
        patches.restore()
    restored = mem_restored and patches.restored()

    n = len(jobs)
    # a job's spans are scaled to the reference pace by its own factor
    selfs = self_times(tracer.spans, [scaled / wall for wall, scaled in zip(walls, jobs)])
    values = {f"{name}.self_s": total / n for name, total in selfs.items()}
    values.update({name: count / n for name, count in tracer.counts.items()})
    cells = tracer.counts.get("criteria.report.cells", 0)
    values["criteria.report.ns_per_cell"] = 1e9 * selfs.get("criteria.report", 0.0) / cells if cells else 0.0
    for name, ratio in layer_peaks.items():
        values[f"{name}.peak_mem_x"] = ratio
    values["trace.job_s"] = sum(jobs) / n
    values["trace.overhead_s"] = statistics.median(jobs) - statistics.median(untraced)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span._asdict()) + "\n")

    # The self times partition the root spans exactly; what the job timer
    # sees beyond them is the root wrapper's own cost.
    accounted = sum(selfs.values()) / n
    unaccounted = values["trace.job_s"] - accounted
    print(f"traced {n} jobs, untraced {len(untraced)}; spans in {trace_path.relative_to(ROOT)}")
    print(f"layer self times sum to {accounted:.6f} s per job; traced job {values['trace.job_s']:.6f} s;"
          f" unaccounted {unaccounted:.2e} s")
    print(f"tracing overhead {values['trace.overhead_s']:+.4f} s per job (median traced - median untraced)")
    for name in PER_LAYER_UNITS:
        print(f"  {name} {values.get(name, 0.0):.6g} {PER_LAYER_UNITS[name]}")
    if not restored:
        tally.messages.append("wrappers were not restored after the traced pass")
    metrics = {name: values.get(name, 0.0) for name in PER_LAYER_UNITS}
    return metrics, restored and abs(unaccounted) <= 0.01 * values["trace.job_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "predcrit" / "__init__.py").is_file():
        print(f"predcrit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir)
        print(f"workload {args.workload}, seed {args.seed}: inputs made in"
              f" {time.perf_counter() - start:.3f} s (not part of setup_s)")
        job, tally = workload.make_job(), Tally(workload)
        if args.trace:
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, ok = traced(workload, job, tally, args.seconds, trace_path)
            units = PER_LAYER_UNITS
        else:
            metrics, ok = end_to_end(workload, job, tally, args.seconds, workdir)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"fail_ratio {tally.failed / tally.attempted:.4f}  ({tally.failed} of {tally.attempted} jobs failed)")
    for message in tally.messages[:10]:
        print(f"  failure: {message}")
    result = {
        "correct": ok and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
