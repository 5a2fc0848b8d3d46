"""Self-tests of the benchmark: generator determinism, generator counts on
tiny hand-checked inputs, the output checker, the metric arithmetic, and one
tiny traced pass through the real CLI.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import layers
import run
import workloads


def _tree(path: Path) -> dict:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = workloads.build(workload, 7, tmp_path / "a")
    again = workloads.build(workload, 7, tmp_path / "b")
    other = workloads.build(workload, 8, tmp_path / "c")
    assert first == again
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    # The seed changes contents, not how much work a pass holds.
    assert [j["argv"][0] for j in first] != [] and len(first) == len(other)


# Hand-checked: each expected count below was read off the printed text.

def test_amr_counts_hand_checked(monkeypatch):
    monkeypatch.setattr(gen, "AMR_VARIABLES", (3, 3))
    text, counts = gen.amr_file(random.Random(5), "d", 1)
    assert text == (
        "# ::id d.1\n# ::snt plan road storm naïve flood farmer .\n"
        "(v1 / flood-01~e.24\n"
        "    :poss~e.4 (v2 / organization~e.39)\n"
        "    :ARG3 (v3 / river~e.0\n"
        '        :name "Harvest")\n'
        "    :polarity -\n"
        "    :poss v2)\n")
    # v1..v3; "Harvest" and "-"; poss, ARG3, name, polarity and the re-entrant poss.
    assert counts == gen.Counts(concept=3, entity=2, omitted=0, edges=5)


def test_conll_counts_hand_checked():
    text, counts = gen.conll_file(random.Random(3), "d", 1)
    tags = [line.split("\t")[8] for line in text.splitlines() if line[:1].isdigit()]
    assert tags.count("B-Cause") == 1 and tags.count("B-Effect") == 3
    # Sentence, Causation, LanguageDoc; four spans plus the language; no
    # omitted node; content, source, 1 cause, 3 effects, language, 4 elements.
    assert counts == gen.Counts(concept=3, entity=5, omitted=0, edges=11)


def test_turtle_counts_hand_checked():
    text, counts, trees = gen.turtle_file(random.Random(4), 2, tree_size=(2, 2))
    assert "sem:subEventOf ex:ev1" in text and "ex:place2 rdfs:label" in text
    # ev1: event, id, label, 4 predicate concepts with leaves, subEvent -> ev2.
    # ev2: event, id, label, 3 predicate concepts with leaves.
    assert trees == [gen.Counts(concept=9, entity=11, omitted=0, edges=19)]
    # Plus the island triple: one predicate concept, its leaf and the edge.
    assert counts == gen.Counts(concept=10, entity=12, omitted=0, edges=20)


def test_ucca_counts_hand_checked():
    text, counts = gen.ucca_file(random.Random(1), 6)
    records = [line.split()[0] for line in text.splitlines()]
    assert (records.count("unit"), records.count("term"), records.count("edge")) == (2, 4, 5)
    assert counts == gen.Counts(concept=2, entity=4, omitted=0, edges=5)


def test_xml_graph_violations_by_construction():
    catalogue = gen.catalogue_spec(random.Random(2), 5)
    _, _, lax, strict = gen.xml_graph(random.Random(2), catalogue, 8, 2, 1)
    assert lax == {"ENTITY_OUT_EDGE": 2, "OMITTED_OUT_EDGE": 2,
                   "DUPLICATE_ROLE_SLOT": 2, "BAD_INDEX_SET": 2}
    assert strict == dict(lax, UNKNOWN_CONCEPT=1, UNKNOWN_ROLE=1, INDEXING_MISMATCH=1)


# The output checker.

_XML = ('<semanticgraph version="1"><concept id="n1" name="A">'
        '<role name="r" target="n2"/></concept><entity id="n2" value="v"/>'
        '<omitted id="n3"/></semanticgraph>\n')
_COUNTS = {"concept": 1, "entity": 1, "omitted": 1, "edges": 1}


def _xml_job(counts=_COUNTS, **overrides) -> dict:
    job = {"id": "j000", "argv": ["convert"], "size": 4, "exit": 0,
           "stdout": {"kind": "xml", "counts": counts}, "stderr": {"kind": "empty"},
           "files": []}
    job.update(overrides)
    return job


def test_checker_accepts_matching_output(tmp_path):
    assert check.check_job(_xml_job(), 0, _XML, "", tmp_path) == []


def test_checker_rejects_wrong_count(tmp_path):
    wrong = dict(_COUNTS, entity=2)
    problems = check.check_job(_xml_job(wrong), 0, _XML, "", tmp_path)
    assert len(problems) == 1 and "expected xml" in problems[0]


def test_checker_rejects_wrong_exit_code_and_stream_split(tmp_path):
    problems = check.check_job(_xml_job(), 1, "", _XML, tmp_path)
    assert any("exit code 1" in p for p in problems)
    assert any("stdout" in p for p in problems) and any("stderr" in p for p in problems)


def test_checker_counts_dot_and_violations(tmp_path):
    dot = ('digraph semanticgraph {\n  rankdir=TB;\n  "n1" [shape=box, label="A"];\n'
           '  "n\\"2" [shape=ellipse, label="v"];\n  "n1" -> "n\\"2" [label="r"];\n}\n')
    (tmp_path / "g.dot").write_text(dot, encoding="utf-8")
    spec = {"kind": "dot", "path": "g.dot",
            "counts": {"concept": 1, "entity": 1, "omitted": 0, "edges": 1}}
    job = _xml_job(stdout={"kind": "violations", "codes": {"UNKNOWN_ROLE": 1}}, files=[spec])
    violation = "UNKNOWN_ROLE\tn1 -r-> n2\t'r' is not a declared role\n"
    assert check.check_job(job, 0, violation, "", tmp_path) == []
    assert check.check_job(job, 0, violation * 2, "", tmp_path) != []
    spec["counts"] = dict(spec["counts"], edges=2)
    assert check.check_job(job, 0, violation, "", tmp_path) != []


def test_checker_reports_missing_file(tmp_path):
    job = _xml_job(stdout={"kind": "empty"},
                   files=[{"kind": "xml", "path": "nope.xml", "counts": _COUNTS}])
    assert any("not written" in p for p in check.check_job(job, 0, "", "", tmp_path))


# Metric arithmetic.

def test_size_exponent_recovers_a_power_law():
    points = [(n, 3e-6 * n ** 2) for n in (100, 200, 400, 800)]
    assert run.size_exponent(points) == pytest.approx(2.0)
    assert run.size_exponent([(100, 1.0), (100, 2.0)]) == 0.0


def test_layer_table_self_time_and_nesting():
    trace = {"missing": [], "counters": [[0, "model.add_edge", 10, 0.5]], "spans": [
        {"id": 0, "parent": None, "name": "cli.main", "job": 0, "start": 0.0, "end": 4.0,
         "child_s": 3.0, "work": 0},
        {"id": 1, "parent": 0, "name": "model.merge", "job": 0, "start": 0.5, "end": 2.0,
         "child_s": 0.0, "work": 7},
        {"id": 2, "parent": 0, "name": "model.add_planned_edges", "job": 0, "start": 2.0,
         "end": 3.5, "child_s": 0.5, "work": 0},
    ]}
    table = run.layer_table(trace)[0]
    assert table["cli.main"] == {"calls": 1, "s": 4.0, "self_s": 1.0, "work": 0}
    assert table["model.add_planned_edges"]["self_s"] == pytest.approx(1.0)
    assert table["model.add_edge"] == {"calls": 10, "s": 0.5, "self_s": 0.5, "work": 0}


def test_unwrapped_layer_is_absent_not_zero():
    trace = {"wrapped": ["cli.main", "xmlio.to_xml"], "missing": ["model.merge"],
             "counters": [], "spans": [
                 {"id": 0, "parent": None, "name": "cli.main", "job": 0, "start": 0.0,
                  "end": 2.0, "child_s": 1.0, "work": 0},
                 {"id": 1, "parent": 0, "name": "xmlio.to_xml", "job": 0, "start": 0.5,
                  "end": 1.5, "child_s": 0.0, "work": 10}]}
    metrics, shares, called = run.traced_layers(trace, [{"size": 10}])
    assert "model.merge.calls" not in metrics and "model.merge.copy_ratio" not in metrics
    assert metrics["xmlio.to_xml.self_s"] == 1.0 and metrics["cli.main.self_s"] == 1.0
    assert called == {"cli.main", "xmlio.to_xml"} and shares["xmlio.to_xml"] == 0.5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == [*run.PER_LAYER, run.TRACE_OVERHEAD]
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.metric_unit(metric["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name in run.PER_LAYER:
        assert name.rsplit(".", 1)[0] in layers.LAYERS


# One tiny pass through the real CLI, traced.

def test_traced_pass_checks_out(tmp_path):
    rng = random.Random(1)
    writes = {}
    jobs = []
    for source, (text, counts) in {
            "amr": gen.amr_file(rng, "d", 4), "conll": gen.conll_file(rng, "d", 3),
            "ttl": gen.turtle_file(rng, 5)[:2], "ucca": gen.ucca_file(rng, 40),
            "umr": gen.umr_file(rng, 4)}.items():
        writes[f"in/{source}.txt"] = text
        jobs.append(workloads._convert(source, "xml", f"in/{source}.txt", counts, True))
    for i, job in enumerate(jobs):
        job["id"] = f"j{i:03d}"
    for name, text in writes.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "out").mkdir()
    (tmp_path / "jobs.json").write_text(json.dumps(jobs), encoding="utf-8")
    done = subprocess.run([sys.executable, str(run.BENCH / "child.py"), str(tmp_path),
                           str(tmp_path / "jobs.json"), str(tmp_path / "r.json"),
                           str(tmp_path / "t.json")], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))
    for job, outcome in zip(jobs, result["jobs"]):
        stdout = (tmp_path / "out" / f"{job['id']}.stdout").read_text(encoding="utf-8")
        stderr = (tmp_path / "out" / f"{job['id']}.stderr").read_text(encoding="utf-8")
        assert check.check_job(job, outcome["code"], stdout, stderr, tmp_path) == []
    trace = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert trace["missing"] == [] and sorted(trace["wrapped"]) == sorted(layers.LAYERS)
    table = run.layer_table(trace)
    assert {job for job in table} == set(range(len(jobs)))
    amr = table[0]
    assert amr["cli.main"]["calls"] == 1 and amr["model.merge"]["calls"] == 3
    assert amr["model.add_edge"]["calls"] > 0 and amr["model.validate"]["calls"] == 1
    for span in trace["spans"]:
        if span["name"] != "cli.main":
            assert span["parent"] is not None
