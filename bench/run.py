"""semgraph benchmark: the `semgraph` CLI over seeded, generated corpora.

    python3 bench/run.py --workload corpus-combine --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0   # one table

Run from the root of a source checkout; the program is imported from
``src/``. Load is one closed-loop client: one job (one CLI invocation on one
file) at a time, in a fresh child interpreter per pass over the workload's
jobs. A run times a fixed number of rounds of passes, so that the estimates
below do not change with the program's speed, and the rounds take turns on
each CPU; if ``--seconds`` is not spent by then, further passes only check
the outputs. Each job's time is its best over the timed passes, and the
job-time median and p90 are taken over the jobs of a pass (at least 100).
Set-up time is sampled a fixed number of times in fresh interpreters during
the timed rounds and reported as the best sample.

Every job's exit code, stdout/stderr split and outputs are checked against
the generator's counts, and its output bytes must be identical in every
pass. Failed jobs are counted, never dropped: the result's ``failed`` over
``attempted`` is the error ratio.

With ``--trace 0`` the last line reports the end-to-end metrics. With
``--trace 1`` untraced and traced passes alternate, and the last line
reports the per-layer metrics of the traced passes (see ``layers.py``).
Inputs, outputs, per-job digests and the spans of each traced pass are left
under ``bench/_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import check
import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Run digests of every job's output bytes at one seed, so that a change can
# show its outputs are byte-identical to the code it started from.
RECORDED_DIGESTS = BENCH / "digests.json"

IMPORT = ("import time; t = time.perf_counter(); import semgraph, semgraph.cli;"
          " print(time.perf_counter() - t)")
SETUP_SAMPLES = 3  # per round of timed passes, so the samples span the run
TIMED_ROUNDS = 6  # untraced passes with --trace 0
TIMED_ROUNDS_TRACED = 4  # pairs of untraced and traced passes with --trace 1
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "elements_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

# <layer>.<stat>, with layer a key of layers.LAYERS.
PER_LAYER = (
    "model.merge.calls", "model.merge.s", "model.merge.copied_elems",
    "model.merge.copy_ratio", "model.merge.size_exp", "model.merge.share",
    "model.add_edge.calls", "model.add_edge.s", "model.add_edge.size_exp",
    "model.add_edge.share", "model.add_planned_edges.s",
    "kg.parse_turtle.s", "kg.parse_turtle.triples_per_s",
    "kg.events_to_graph.self_s", "kg.events_to_graph.size_exp", "kg.split_events.s",
    "ucca.parse_ucca.s", "ucca.ucca_to_graph.self_s",
    "penman.parse_umr_document.s", "penman.umr_to_graph.self_s",
    "penman.parse_penman_file.s", "penman.parse_penman_file.chars_per_s",
    "penman.parse_penman_file.size_exp", "penman.amr_to_graph.s",
    "conll.parse_conll.s", "conll.causation_to_graph.s",
    "xmlio.to_xml.self_s", "xmlio.to_xml.size_exp", "dot.to_dot.self_s",
    "xmlio.from_xml.s", "xmlio.from_xml.elems_per_s", "xmlio.from_xml.size_exp",
    "xmlio.catalogue_from_xml.s", "model.validate.calls", "model.validate.s",
    "cli.main.self_s",
)
TRACE_OVERHEAD = "trace_overhead_ratio"

_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s", "copied_elems": "count",
               "copy_ratio": "ratio", "size_exp": "slope", "share": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


# ------------------------------------------------------------------ running

def child_env() -> dict:
    """The environment of every child interpreter: the program from ``src/``,
    with bytecode caching on, as an installed package has it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def pinned(cpu: int | None):
    """A ``preexec_fn`` that keeps a child on one CPU, or None to leave it be."""
    if cpu is None:
        return None
    return lambda: os.sched_setaffinity(0, {cpu})


def import_seconds(cpu: int | None = None) -> float:
    """Wall time of importing the package in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT], env=child_env(), cwd=BENCH,
                          capture_output=True, text=True, timeout=60,
                          preexec_fn=pinned(cpu))
    if done.returncode != 0:
        raise BenchError(f"importing semgraph failed:\n{done.stderr}")
    return float(done.stdout)


def run_pass(workdir: Path, number: int, traced: bool, cpu: int | None = None) -> dict:
    """One fresh child interpreter running every job once, into an emptied
    ``out/``, so that each pass's outputs are its own."""
    shutil.rmtree(workdir / "out")
    (workdir / "out").mkdir()
    result = workdir / f"pass-{number}.json"
    argv = [sys.executable, str(BENCH / "child.py"), str(workdir),
            str(workdir / "jobs.json"), str(result)]
    if traced:
        argv.append(str(workdir / f"trace-{number}.json"))
    done = subprocess.run(argv, env=child_env(), cwd=workdir, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, preexec_fn=pinned(cpu))
    if done.returncode != 0:
        raise BenchError(f"pass {number} exited with {done.returncode}:\n{done.stderr}")
    outcome = json.loads(result.read_text(encoding="utf-8"))
    outcome["traced"] = traced
    outcome["pass_s"] = sum(job["s"] for job in outcome["jobs"])
    if traced:
        trace_file = workdir / f"trace-{number}.json"
        outcome["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
    return outcome


class Checker:
    """Checks each pass's outcomes; the first pass against the generator's
    expectations, later passes for byte-identical outputs."""

    def __init__(self, jobs: list[dict], workdir: Path):
        self.jobs = jobs
        self.workdir = workdir
        self.digests: list[str] = []
        self.failed_first: list[bool] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check_pass(self, outcome: dict) -> None:
        first = not self.digests
        for i, (job, result) in enumerate(zip(self.jobs, outcome["jobs"])):
            out = self.workdir / "out"
            stdout = (out / f"{job['id']}.stdout").read_text(encoding="utf-8")
            stderr = (out / f"{job['id']}.stderr").read_text(encoding="utf-8")
            digest = check.job_digest(job, result["code"], stdout, stderr, self.workdir)
            if first:
                problems = check.check_job(job, result["code"], stdout, stderr, self.workdir)
                self.digests.append(digest)
                self.failed_first.append(bool(problems))
                self.problems += problems
                bad = bool(problems)
            elif digest != self.digests[i]:
                self.problems.append(f"{job['id']}: output bytes differ between passes")
                bad = True
            else:
                bad = self.failed_first[i]
            self.attempted += 1
            self.failed += bad

    def run_digest(self) -> str:
        return hashlib.sha256("\n".join(self.digests).encode()).hexdigest()


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "semgraph" / "cli.py").is_file():
        raise BenchError(f"no semgraph sources under {SRC}; run from a source checkout")
    workdir = BENCH / "_work" / workload
    if workdir.exists():
        shutil.rmtree(workdir)
    jobs = workloads.build(workload, seed, workdir)
    (workdir / "jobs.json").write_text(
        json.dumps([{"id": j["id"], "argv": j["argv"]} for j in jobs]), encoding="utf-8")
    import_seconds()  # fills the bytecode cache, which users do not pay for per run
    setup: list[float] = []
    checker = Checker(jobs, workdir)
    kinds = [False, True] if traced else [False]  # a traced run alternates the two
    rounds = TIMED_ROUNDS_TRACED if traced else TIMED_ROUNDS
    # The CPUs of a shared machine differ in speed, and which one is slow
    # changes over time. Rounds take turns on each CPU, so that every job's
    # best time comes from the fastest CPU while it ran.
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [None]
    passes: list[dict] = []  # the timed passes
    checked = 0
    start = perf_counter()
    for number in range(rounds):
        cpu = cpus[number % len(cpus)]
        setup += [import_seconds(cpu) for _ in range(SETUP_SAMPLES)]
        for kind in kinds:
            outcome = run_pass(workdir, len(passes), kind, cpu)
            checker.check_pass(outcome)
            passes.append(outcome)
    while perf_counter() - start < seconds:
        checker.check_pass(run_pass(workdir, len(passes) + checked, False))
        checked += 1
    (workdir / "digests.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "run": checker.run_digest(),
         "jobs": dict(zip((j["id"] for j in jobs), checker.digests))}, indent=1),
        encoding="utf-8")
    return {"seed": seed, "jobs": jobs, "passes": passes, "checked": checked,
            "setup_s": min(setup), "checker": checker}


# ------------------------------------------------------------------ metrics

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def best_times(passes: list[dict]) -> list[float]:
    """Each job's best wall time over the passes. Other load on the machine
    only ever slows a job down, so the best of a fixed number of passes,
    spread over the run, is the steadiest estimate of what the job costs."""
    return [min(times) for times in zip(*([job["s"] for job in p["jobs"]] for p in passes))]


def end_to_end(run: dict) -> dict:
    passes = [p for p in run["passes"] if not p["traced"]]
    best = best_times(passes)
    return {
        "setup_s": run["setup_s"],
        "elements_per_s": sum(job["size"] for job in run["jobs"]) / sum(best),
        "job_p50_ms": 1000 * statistics.median(best),
        "job_p90_ms": 1000 * quantile(best, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024 for p in passes),
    }


def layer_table(trace: dict) -> dict:
    """Per job and layer: calls, inclusive seconds (outermost calls only),
    self seconds and work units."""
    table: dict = defaultdict(lambda: defaultdict(lambda: {
        "calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}))
    spans = trace["spans"]
    for span in spans:
        row = table[span["job"]][span["name"]]
        duration = span["end"] - span["start"]
        row["calls"] += 1
        row["self_s"] += duration - span["child_s"]
        row["work"] += span["work"]
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != span["name"]:
            parent = spans[parent]["parent"]
        if parent is None:
            row["s"] += duration
    for job, name, calls, seconds in trace["counters"]:
        row = table[job][name]
        row["calls"] += calls
        row["s"] += seconds
        row["self_s"] += seconds
    return table


def size_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    points = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in points)
    my = statistics.fmean(y for _, y in points)
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def traced_layers(trace: dict, jobs: list[dict]) -> tuple[dict, dict, set]:
    """Per-layer metrics of one traced pass, self-time shares of job time,
    and the layers that were called.

    ``size_exp`` is the log-log slope of a layer's per-job self time against
    the job's size in graph elements; ``share`` is the layer's time over all
    job time; ``copy_ratio`` is the elements merge copied over the elements
    of the graphs written out.
    """
    table = layer_table(trace)
    totals: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
    for rows in table.values():
        for name, row in rows.items():
            for key in totals[name]:
                totals[name][key] += row[key]
    main_s = totals["cli.main"]["s"]
    serialized = totals["xmlio.to_xml"]["work"] + totals["dot.to_dot"]["work"]
    metrics = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if layer not in trace["wrapped"]:
            continue
        row = totals[layer]
        if stat in ("calls", "s", "self_s"):
            value = row[stat]
        elif stat.endswith("_per_s"):
            value = row["work"] / row["s"] if row["s"] else 0.0
        elif stat == "copied_elems":
            value = row["work"]
        elif stat == "copy_ratio":
            value = row["work"] / serialized if serialized else 0.0
        elif stat == "share":
            value = row["s"] / main_s if main_s else 0.0
        elif stat == "size_exp":
            value = size_exponent([(jobs[job]["size"], rows[layer]["self_s"])
                                   for job, rows in table.items() if layer in rows])
        else:
            raise ValueError(f"unknown stat in {metric}")
        metrics[metric] = value
    called = {name for name, row in totals.items() if row["calls"]}
    shares = {name: totals[name]["self_s"] / main_s for name in called if main_s}
    return metrics, shares, called


def per_layer(run: dict) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics (medians over the traced passes), self-time shares,
    and the layers never called. The tracing overhead compares the traced
    and untraced passes by their best job times, as ``end_to_end`` does."""
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    results = [traced_layers(p["trace"], run["jobs"]) for p in traced]
    metrics = {name: statistics.median(r[0][name] for r in results)
               for name in results[0][0]}
    metrics[TRACE_OVERHEAD] = sum(best_times(traced)) / sum(best_times(untraced))
    shares = {name: statistics.median(r[1].get(name, 0.0) for r in results)
              for name in results[0][1]}
    called = set().union(*(r[2] for r in results))
    absent = sorted(name for name in layers.LAYERS if name not in called)
    return metrics, shares, absent


# ------------------------------------------------------------------ output

def metric_unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == TRACE_OVERHEAD:
        return "ratio"
    stat = name.rsplit(".", 1)[1]
    return "1/s" if stat.endswith("_per_s") else _STAT_UNITS[stat]


def result_line(run: dict, values: dict) -> dict:
    checker = run["checker"]
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {name: {"value": value, "unit": metric_unit(name)}
                        for name, value in values.items()}}


def describe(workload: str, run: dict, shares: dict | None = None,
             absent: list[str] = ()) -> list[str]:
    """Human-readable notes for stderr; ``shares`` and ``absent`` as returned
    by ``per_layer`` for a traced run."""
    checker = run["checker"]
    untraced = sum(not p["traced"] for p in run["passes"])
    lines = [f"{workload}: {len(run['passes'])} timed passes and {run['checked']} checked"
             f" only; job p50/p90 over {len(run['jobs'])} jobs, each its best of"
             f" {untraced} untraced passes; error_ratio"
             f" {checker.failed}/{checker.attempted}; output digest {checker.run_digest()[:16]}",
             "  pass seconds: " + ", ".join(
                 f"{p['pass_s']:.3f}{' traced' if p['traced'] else ''}" for p in run["passes"])]
    recorded = json.loads(RECORDED_DIGESTS.read_text(encoding="utf-8"))
    if run["seed"] == recorded["seed"]:
        same = recorded.get(workload) == checker.run_digest()
        lines.append(f"  output bytes {'match' if same else 'DIFFER FROM'} the digest"
                     f" recorded in {RECORDED_DIGESTS.name} for seed {recorded['seed']}")
    lines += [f"  FAILED {p}" for p in checker.problems[:20]]
    if shares is not None:
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        lines.append("  self-time share of job time: " + ", ".join(
            f"{name} {share:.3f}" for name, share in ranked[:6]))
        if absent:
            lines.append("  never called (reported as 0): " + ", ".join(absent))
        missing = run["passes"][-1]["trace"]["missing"]
        if missing:
            lines.append("  missing, not reported: " + ", ".join(missing))
    return lines


def print_table(rows: dict[str, dict], traced: bool) -> None:
    """End-to-end metrics one row per workload; per-layer metrics one row per
    metric. Both end with each workload's error ratio, failed / attempted."""
    names = [*PER_LAYER, TRACE_OVERHEAD] if traced else list(END_TO_END)

    def cell(row: dict, name: str) -> str:
        metric = row["metrics"].get(name)
        return "-" if metric is None else f"{metric['value']:.6g}"

    def errors(row: dict) -> str:
        return f"{row['failed'] / row['attempted']:.4g} ({row['failed']}/{row['attempted']})"

    if traced:
        table = [["metric [unit]", *rows]]
        table += [[f"{name} [{metric_unit(name)}]", *(cell(r, name) for r in rows.values())]
                  for name in names]
        table.append(["error_ratio [ratio]", *(errors(r) for r in rows.values())])
    else:
        table = [["workload", *(f"{name} [{metric_unit(name)}]" for name in names),
                  "error_ratio [ratio]"]]
        table += [[workload, *(cell(row, name) for name in names), errors(row)]
                  for workload, row in rows.items()]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(text.ljust(width) for text, width in zip(row, widths)).rstrip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    rows = {}
    try:
        for workload in names:
            run = measure(workload, args.seed, args.seconds, traced)
            if traced:
                values, shares, absent = per_layer(run)
                notes = describe(workload, run, shares, absent)
            else:
                values, notes = end_to_end(run), describe(workload, run)
            print("\n".join(notes), file=sys.stderr)
            rows[workload] = result_line(run, values)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print_table(rows, traced)
    else:
        print(json.dumps(rows[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
