"""One pass of a workload, run in a fresh interpreter by ``run.py``.

Usage: child.py WORKDIR JOBS_JSON RESULT_JSON [TRACE_JSON]

Runs each job's argv through ``semgraph.cli.main`` in this process, one at a
time, with stdout and stderr captured. Each job is timed around the call
alone; its captured streams are saved under ``WORKDIR/out`` afterwards for
``run.py`` to check. With TRACE_JSON, the layers are wrapped first (see
``layers.py``) and the spans are written there at the end.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def peak_rss_kb() -> int:
    """This process's peak resident set size. ``ru_maxrss`` also counts the
    parent's resident set at the time of the fork, so the kernel's high-water
    mark of this process's own memory is read where there is one."""
    try:
        with open("/proc/self/status", encoding="utf-8", errors="replace") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv: list[str]) -> int:
    workdir, jobs_path, result_path = argv[:3]
    trace_path = argv[3] if len(argv) > 3 else None
    with open(jobs_path, encoding="utf-8") as handle:
        jobs = json.load(handle)
    os.chdir(workdir)
    from semgraph import cli

    tracer = None
    if trace_path:
        import layers
        tracer = layers.install()
    results = []
    for i, job in enumerate(jobs):
        gc.collect()  # each job starts from a clean heap, as a fresh CLI process would
        stdout, stderr = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.job = i
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = perf_counter()
            try:
                code = cli.main(job["argv"])
            except Exception:  # a traceback is an outcome to check, not a crash
                code = -1
                traceback.print_exc()
            elapsed = perf_counter() - start
        for stream, text in (("stdout", stdout), ("stderr", stderr)):
            with open(f"out/{job['id']}.{stream}", "w", encoding="utf-8",
                      newline="") as handle:
                handle.write(text.getvalue())
        results.append({"code": code, "s": elapsed})
    peak_kb = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump({"jobs": results, "peak_rss_kb": peak_kb}, handle)
    if tracer is not None:
        tracer.dump(trace_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
