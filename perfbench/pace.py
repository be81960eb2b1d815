"""The host's pace: how long fixed pieces of work take right now, as a
multiple of the time they took at the reference pace.

The shared host this benchmark was written on changes its speed by up to
2x in phases lasting from seconds to minutes, with steal time near 0, so
the same job on the same input can take 1.4 s in one minute and 2.6 s in
the next, and two sets of runs made minutes apart disagree by more than
any useful bound. Timing a fixed calibration right before and right after
each job and dividing the job's wall time by the pace cancels most of
that. The calibrations are benchmark code and never change with the
program, so a change to the program moves a scaled time exactly as it
moves the wall time.

A phase does not slow every kind of work alike, so each job names the
calibrations whose work resembles its own (`Job.calibration`):

- "array" streams a 32 MB array through numpy twice (exp, then a column
  sum) into buffers allocated once. It suits the numpy workloads: over
  20-second windows of 150-second runs, the quartile distance of the
  window medians over their median went from 0.09, 0.11 and 0.06 (wall
  time; criteria-inmem, paper-tables, expect-study) to 0.04, 0.05 and 0.03.
  On criteria-csv it moved 0.18 only to 0.13.
- "parse" turns 80000 float strings into Python floats, as a CSV reader
  does. With "array" it took criteria-csv from 0.18 to 0.06; alone it
  made paper-tables worse (0.03 to 0.15), so the numpy workloads do not
  use it. A float-parsing loop over a few thousand cached strings tracked
  every workload worse than wall time alone.
"""
from __future__ import annotations

import random
import time

import numpy as np

_SOURCE = np.linspace(-3.0, 0.0, 4096 * 1024).reshape(4096, 1024)
_BUFFER = np.empty_like(_SOURCE)
_COLUMNS = np.empty(_SOURCE.shape[1])
_rng = random.Random(0)
_STRINGS = [repr(_rng.gauss(-2.0, 1.0)) for _ in range(80_000)]


def _array() -> None:
    for _ in range(2):
        np.exp(_SOURCE, out=_BUFFER)
        np.sum(_BUFFER, axis=0, out=_COLUMNS)


def _parse() -> None:
    values = [float(s) for s in _STRINGS]
    del values


# name: (calibration, its wall seconds at the reference pace). The
# reference times are fixed constants, about the calibrations' medians on
# the host of the first baseline, so scaled times read in seconds.
CALIBRATIONS = {"array": (_array, 0.025), "parse": (_parse, 0.035)}


def pace(kinds=("array",)) -> float:
    """The host's pace now: the mean over `kinds` of calibration time over
    reference time (1.0 at the reference pace, 2.0 when work takes twice
    as long)."""
    total = 0.0
    for kind in kinds:
        fn, reference_s = CALIBRATIONS[kind]
        start = time.perf_counter()
        fn()
        total += (time.perf_counter() - start) / reference_s
    return total / len(kinds)


def scale(wall_s: float, before: float, after: float) -> float:
    """`wall_s` at the reference pace, given the paces timed around it."""
    return wall_s / (0.5 * (before + after))
