"""The benchmark's workloads as a test of output bytes: every job of each
workload, built at the seed that ``bench/digests.json`` records, run through
the CLI in this process, checked against the generator's expectations, and
digested as ``bench/run.py`` digests a pass."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

import check
import workloads
from semgraph.cli import main

RECORDED = json.loads((Path(__file__).parent.parent / "bench" / "digests.json")
                      .read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_outputs_match_the_recorded_digest(workload, tmp_path, monkeypatch):
    jobs = workloads.build(workload, RECORDED["seed"], tmp_path)
    monkeypatch.chdir(tmp_path)
    problems, digests = [], []
    for job in jobs:
        # Universal newlines, as run.py reads back the streams that a pass saved.
        stdout, stderr = io.StringIO(newline=None), io.StringIO(newline=None)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(job["argv"])
        outcome = (job, code, stdout.getvalue(), stderr.getvalue(), tmp_path)
        problems += check.check_job(*outcome)
        digests.append(check.job_digest(*outcome))
    assert problems == []
    assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == RECORDED[workload]
