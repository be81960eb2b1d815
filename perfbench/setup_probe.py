"""Set-up time and peak memory of one job in a fresh process: import
predcrit, then run the first, cold job.

    python3 perfbench/setup_probe.py <predcrit src dir> <job spec json>

Loading the job's input (the in-memory matrix) is excluded from the time.
The job's peak extra memory is the process's resident high-water mark after
the job minus its resident size just before it. The mark is VmHWM, which
starts afresh at exec; ru_maxrss would also carry the launching process's
resident size across the fork. Prints one JSON line:
{"import_s", "job_s", "peak_extra_bytes", "outputs"}.
"""
import importlib
import json
import os
import sys
import time
from pathlib import Path


def resident_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def resident_high_water_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024  # reported in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, spec_path = sys.argv[1], Path(sys.argv[2])
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, src)
    start = time.perf_counter()
    importlib.import_module("predcrit.cli" if "cli" in spec else "predcrit")
    import_s = time.perf_counter() - start

    from workloads import Job

    job = Job(spec)
    job.load()
    before = resident_bytes()
    start = time.perf_counter()
    job.run()
    job_s = time.perf_counter() - start
    peak = resident_high_water_bytes()
    outputs = [o.decode() for o in job.outputs()]
    print(json.dumps({"import_s": import_s, "job_s": job_s,
                      "peak_extra_bytes": peak - before, "outputs": outputs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
