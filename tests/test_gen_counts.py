"""The benchmark's generators (``bench/gen.py``) against semgraph: for drawn
seeds and small sizes, each generated file converts to XML and to DOT with
the node and edge counts the generator states, each generated XML graph
renders to DOT with them and comes back from a canonical write unchanged,
and ``validate`` reports the violations the generator injected. The scaling
gates and the benchmark's output checks rest on these counts; DOT is counted
by the benchmark's own checker (``bench/check.py``)."""

import contextlib
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import gen
from check import dot_counts
from semgraph.cli import main
from semgraph.model import ConceptNode, EntityNode, OmittedNode
from semgraph.xmlio import from_xml, to_xml

SETTINGS = settings(max_examples=20)
SEEDS = st.integers(0, 2**32 - 1)

# format -> file maker from (rng, size), and the largest size drawn
FORMATS = {
    "amr": (lambda rng, n: gen.amr_file(rng, "d", n), 6),
    "umr": (gen.umr_file, 6),
    "ttl": (lambda rng, n: gen.turtle_file(rng, n)[:2], 12),
    "conll": (lambda rng, n: gen.conll_file(rng, "d", n), 6),
    "ucca": (gen.ucca_file, 60),
}

KIND = {ConceptNode: gen.CONCEPT, EntityNode: gen.ENTITY, OmittedNode: gen.OMITTED}


def counts_of(graph) -> dict:
    kinds = Counter(KIND[type(node)] for node in graph.nodes.values())
    return {gen.CONCEPT: kinds[gen.CONCEPT], gen.ENTITY: kinds[gen.ENTITY],
            gen.OMITTED: kinds[gen.OMITTED], "edges": len(graph.edges)}


def run(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
def test_converted_file_has_the_generators_counts(fmt, tmp_path):
    make, largest = FORMATS[fmt]
    path = tmp_path / f"input.{fmt}"

    @SETTINGS
    @given(SEEDS, st.integers(1, largest))
    def check(seed, size):
        text, counts = make(random.Random(seed), size)
        path.write_text(text, encoding="utf-8")
        for target, counted in [("xml", lambda xml: counts_of(from_xml(xml))),
                                ("dot", dot_counts)]:
            code, out = run(["convert", "--from", fmt, "--to", target, str(path)])
            assert code == 0
            assert counted(out) == counts.as_dict(), target

    check()


@st.composite
def xml_graphs(draw, lax_faults=st.integers(0, 2)):
    """A generated XML graph, its catalogue and the generator's counts and
    violations by code in lax and in strict mode. ``xml_graph`` puts each lax
    fault on an entity it draws, so the graph gets enough nodes that some
    are entities."""
    spec = gen.catalogue_spec(random.Random(draw(SEEDS)), draw(st.integers(1, 12)))
    text, counts, lax, strict = gen.xml_graph(
        random.Random(draw(SEEDS)), spec, draw(st.integers(20, 60)),
        draw(lax_faults), draw(st.integers(0, 2)))
    return spec, text, counts, lax, strict


@SETTINGS
@given(xml_graphs(lax_faults=st.just(0)))  # to_xml writes lax-valid graphs only
def test_canonical_write_of_a_generated_graph_reads_back_to_the_same_bytes(case):
    _, text, counts, _, _ = case
    graph = from_xml(text)
    assert counts_of(graph) == counts.as_dict()
    canonical = to_xml(graph)
    assert to_xml(from_xml(canonical)) == canonical


def test_render_of_a_generated_graph_has_the_generators_counts(tmp_path):
    path = tmp_path / "graph.xml"

    @SETTINGS
    @given(xml_graphs(lax_faults=st.just(0)))  # render writes lax-valid graphs only
    def check(case):
        _, text, counts, _, _ = case
        path.write_text(text, encoding="utf-8")
        code, dot = run(["render", str(path)])
        assert code == 0
        assert dot_counts(dot) == counts.as_dict()

    check()


def test_validate_reports_the_generators_violations(tmp_path):
    graph_path, catalogue_path = tmp_path / "graph.xml", tmp_path / "catalogue.xml"

    @SETTINGS
    @given(xml_graphs())
    def check(case):
        spec, text, _, lax, strict = case
        graph_path.write_text(text, encoding="utf-8")
        catalogue_path.write_text(spec.xml(), encoding="utf-8")
        for expected, args in [
            (lax, ["validate", str(graph_path)]),
            (strict, ["validate", "--strict", "--catalogue", str(catalogue_path),
                      str(graph_path)]),
        ]:
            code, out = run(args)
            assert (code, dict(Counter(line.split("\t")[0] for line in out.splitlines()))) \
                == (1 if expected else 0, expected)

    check()
