"""The benchmark's workloads: the files each one generates from the seed, the
`semgraph` CLI jobs it runs on them, and what every job must return, print
and write.

Each workload is a list of groups of (kind, size, count), in order of cost.
A pass holds over 100 jobs, so that the job-time p90 has ten jobs above it.
The groups put both reported percentiles inside groups of like jobs, away
from the larger steps between groups, so that noise cannot move them from
one group to the next:

- The median group is half of one kind and half of another, sized to cost
  about the same, with as many jobs below it as above it. The median then
  falls in the middle of the two kinds' mixed costs and reads both: AMR and
  CoNLL on corpus-combine, Turtle and UMR on big-graph. Should one kind get
  much faster than the other, the median falls between them and still
  reads both. On xml-read it reads lax validation alone.
- Twelve identical larger jobs hold p90: AMR on corpus-combine, UCCA on
  big-graph, strict validation on xml-read. A few large files sit above
  them, where the superlinear layers of the seed show.
"""

from __future__ import annotations

import random
from pathlib import Path

import gen

CORPUS_COMBINE = "corpus-combine"
BIG_GRAPH = "big-graph"
XML_READ = "xml-read"
WORKLOADS = (CORPUS_COMBINE, BIG_GRAPH, XML_READ)

# Sentences per file. Every file is combined into one graph, so the combine
# step dominates: each sentence is merged into a copy of everything before it.
CORPUS_GROUPS = [
    ("conll", 10, 26),
    ("conll", 28, 30), ("amr", 12, 30),  # the median
    ("conll", 40, 6), ("amr", 30, 4),
    ("amr", 60, 12),  # p90
    ("conll", 120, 1), ("amr", 120, 1), ("conll", 200, 1), ("amr", 200, 1),
]
# Events (ttl, split), nodes (ucca) and sentences (umr) per file: each file
# becomes one graph built edge by edge; "split" converts with --no-combine.
BIG_GRAPH_GROUPS = [
    ("ucca", 200, 30),
    ("ttl", 40, 30), ("umr", 12, 30),  # the median
    ("ucca", 800, 4), ("umr", 30, 4), ("ttl", 100, 3), ("split", 60, 2),
    ("ucca", 1500, 12),  # p90
    ("ttl", 250, 1), ("ttl", 400, 1), ("ucca", 4000, 1), ("umr", 160, 1), ("split", 300, 1),
]
# Nodes per graph, each graph its own file; "list" lists the catalogue.
XML_GROUPS = [
    ("render", 300, 20),
    ("lax", 600, 64),  # the median
    ("strict", 600, 8), ("list", 0, 4),
    ("strict", 3000, 12),  # p90
    ("lax", 8000, 1), ("strict", 6000, 1), ("strict", 8000, 1), ("render", 6000, 1),
    ("render", 8000, 1),
]
CATALOGUE_CONCEPTS = 800


def _groups(groups):
    """(index, kind, size) of every job, numbered across the workload."""
    jobs = [(kind, size) for kind, size, count in groups for _ in range(count)]
    return [(i, kind, size) for i, (kind, size) in enumerate(jobs)]


def _empty() -> dict:
    return {"kind": "empty"}


def _violations(codes: dict) -> dict:
    return {"kind": "violations", "codes": codes}


def _job(argv, size, stdout=None, files=(), exit_code=0, stderr=None) -> dict:
    """One CLI invocation and the outcome the generator expects of it."""
    return {"argv": list(argv), "size": size, "exit": exit_code,
            "stdout": stdout or _empty(), "stderr": stderr or _empty(),
            "files": list(files)}


def _convert(source: str, target: str, path: str, counts: gen.Counts, to_file: bool,
             extra=()) -> dict:
    argv = ["convert", "--from", source, "--to", target, *extra, path]
    expect = {"kind": target, "counts": counts.as_dict()}
    if not to_file:
        return _job(argv, counts.elements(), stdout=expect)
    out = "out/" + Path(path).stem + "." + target
    return _job(argv + ["-o", out], counts.elements(), files=[dict(expect, path=out)])


def corpus_combine(rng: random.Random, write) -> list[dict]:
    """AMR and CoNLL files of many sentences, each converted to one combined
    XML graph; files of up to 30 sentences go to stdout, larger ones to ``-o``."""
    jobs = []
    for i, kind, n in _groups(CORPUS_GROUPS):
        name = f"in/{kind}-{i:03d}.{kind}"
        if kind == "amr":
            text, counts = gen.amr_file(rng, f"amr{i}", n)
            extra = []
        else:
            text, counts = gen.conll_file(rng, f"c{i}", n)
            extra = ["--lang", "en"] if i % 2 else []
        write(name, text)
        jobs.append(_convert(kind, "xml", name, counts, to_file=n > 30, extra=extra))
    return jobs


def big_graph(rng: random.Random, write) -> list[dict]:
    """Turtle, UCCA and UMR files that each become one large graph, written as
    XML or DOT; the split files are converted one graph per top-level event."""
    jobs = []
    for i, kind, n in _groups(BIG_GRAPH_GROUPS):
        name = f"in/{kind}-{i:03d}." + ("ttl" if kind == "split" else kind)
        target = "dot" if kind == "ucca" else "xml"
        if kind == "ttl":
            text, counts, _ = gen.turtle_file(rng, n)
        elif kind == "ucca":
            text, counts = gen.ucca_file(rng, n)
        elif kind == "umr":
            text, counts = gen.umr_file(rng, n)
        else:
            text, _, trees = gen.turtle_file(rng, n, tree_size=(1, 6))
            if len(trees) < 2:  # one tree would be written unnumbered
                raise ValueError("a split job needs more than one top-level event")
            write(name, text)
            out = f"out/split-{i:03d}"
            files = [{"kind": "xml", "path": f"{out}-{t:02d}.xml", "counts": c.as_dict()}
                     for t, c in enumerate(trees, start=1)]
            jobs.append(_job(["convert", "--from", "ttl", "--to", "xml", "--no-combine",
                              name, "-o", out + ".xml"],
                             sum(c.elements() for c in trees), files=files))
            continue
        write(name, text)
        jobs.append(_convert(kind, target, name, counts, to_file=True))
    return jobs


def xml_read(rng: random.Random, write) -> list[dict]:
    """Hand-written XML graphs and a catalogue. A third of the graphs are clean,
    a third carry lax (structural) violations and a third only strict
    (catalogue) violations; each is validated lax, validated strict or
    rendered."""
    catalogue = gen.catalogue_spec(rng, CATALOGUE_CONCEPTS)
    write("in/catalogue.xml", catalogue.xml())
    listing = catalogue.listing()
    jobs = []
    for g, kind, n in _groups(XML_GROUPS):
        if kind == "list":
            size = len(catalogue.concepts) + sum(len(r) for r in catalogue.concepts.values())
            jobs.append(_job(["catalogue", "list", "in/catalogue.xml"], size,
                             stdout={"kind": "lines", "lines": listing}))
            continue
        faults = 1 + g % 3
        lax_faults = faults if g % 3 == 1 else 0
        strict_faults = faults if g % 3 == 2 else 0
        name = f"in/graph-{g:03d}.xml"
        text, counts, lax, strict = gen.xml_graph(rng, catalogue, n, lax_faults, strict_faults)
        write(name, text)
        size = counts.elements()
        if kind == "lax":
            jobs.append(_job(["validate", name], size, stdout=_violations(lax),
                             exit_code=1 if lax else 0))
        elif kind == "strict":
            jobs.append(_job(["validate", "--strict", "--catalogue", "in/catalogue.xml", name],
                             size, stdout=_violations(strict), exit_code=1 if strict else 0))
        elif lax:
            # Rendering refuses a graph that fails lax validation.
            jobs.append(_job(["render", name, "-o", f"out/graph-{g:03d}.dot"], size,
                             exit_code=1, stderr=_violations(lax)))
        else:
            out = f"out/graph-{g:03d}.dot"
            jobs.append(_job(["render", name, "-o", out], size, files=[
                {"kind": "dot", "path": out, "counts": counts.as_dict()}]))
    return jobs


_WORKLOAD_JOBS = {CORPUS_COMBINE: corpus_combine, BIG_GRAPH: big_graph, XML_READ: xml_read}


def build(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write the workload's input files under ``workdir`` and return its jobs,
    in a seeded order, with their argv relative to ``workdir``."""
    rng = random.Random(f"{workload}:{seed}")
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    (workdir / "out").mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> None:
        (workdir / name).write_text(text, encoding="utf-8")

    jobs = _WORKLOAD_JOBS[workload](rng, write)
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = f"j{i:03d}"
    return jobs
