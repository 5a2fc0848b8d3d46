"""Heap regression tests: the graph records are slotted, and reading,
validating and converting a graph stay within a measured number of bytes per
element.

The bounds were set from ``tracemalloc`` on Python 3.10 to 3.12, where the
graph below measured 172-191 bytes kept per element by ``from_xml`` and
31-36 bytes per element at ``validate``'s peak. Records with a ``__dict__``,
a per-role location list kept by the reader, or a table entry per edge in
``validate`` measured 359-442 and 174 there.

``semgraph convert --to xml -o`` of a 200-sentence file peaked at 288-324
bytes per output element for AMR and 306-334 for CoNLL on Python 3.10 to
3.13, where each unit is added into one graph as it is read and the XML is
written in parts. Keeping every parse tree and per-sentence graph for one
disjoint union at the end, and joining the XML text before writing it,
measured 471-519 and 564-667.
"""

import gc
import random
import tracemalloc

import pytest

import gen
from semgraph.cli import main
from semgraph.model import ConceptNode, Edge, EntityNode, OmittedNode, RoleLabel, validate
from semgraph.xmlio import from_xml, to_xml
from graphgen import random_graph

KEPT_BYTES_PER_ELEMENT = 240
VALIDATE_PEAK_BYTES_PER_ELEMENT = 60
CONVERT_PEAK_BYTES_PER_ELEMENT = 400


@pytest.mark.parametrize("record", [
    RoleLabel("r", 1),
    Edge("a", RoleLabel("r"), "b"),
    ConceptNode("a", "X"),
    EntityNode("e", "v", ["k"]),
    OmittedNode("o"),
], ids=lambda record: type(record).__name__)
def test_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    # A frozen slotted dataclass (every record but Edge) raises TypeError here
    # on Python 3.10 to 3.13: its generated __setattr__ calls super() with the
    # class that slots=True replaced.
    frozen = not isinstance(record, Edge)
    with pytest.raises((AttributeError, TypeError) if frozen else AttributeError):
        record.note = "x"


@pytest.fixture(scope="module")
def document():
    """A 3000-node graph's XML and its number of nodes plus edges."""
    graph = random_graph(random.Random(3000), max_nodes=3000, max_edges=6000, min_nodes=3000)
    return to_xml(graph), len(graph.nodes) + len(graph.edges)


@pytest.fixture
def traced():
    gc.collect()
    tracemalloc.start()
    yield
    tracemalloc.stop()


def test_from_xml_keeps_few_bytes_per_element(document, traced):
    text, elements = document
    before = tracemalloc.get_traced_memory()[0]
    graph = from_xml(text)
    kept = tracemalloc.get_traced_memory()[0] - before
    assert len(graph.nodes) == 3000
    assert kept / elements < KEPT_BYTES_PER_ELEMENT


def test_validate_peak_is_small_per_element(document, traced):
    text, elements = document
    graph = from_xml(text)
    tracemalloc.reset_peak()
    current = tracemalloc.get_traced_memory()[0]
    assert validate(graph) == []
    extra = tracemalloc.get_traced_memory()[1] - current
    assert extra / elements < VALIDATE_PEAK_BYTES_PER_ELEMENT


@pytest.mark.parametrize("source,generate", [("amr", gen.amr_file), ("conll", gen.conll_file)],
                         ids=["amr", "conll"])
def test_convert_peak_is_small_per_element(tmp_path, source, generate):
    text, counts = generate(random.Random(200), "doc", 200)
    path = tmp_path / f"in.{source}"
    path.write_text(text, encoding="utf-8")
    argv = ["convert", "--from", source, "--to", "xml", str(path),
            "-o", str(tmp_path / "out.xml")]
    assert main(argv) == 0  # once untraced: imports and compiled patterns are not counted
    gc.collect()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / counts.elements() < CONVERT_PEAK_BYTES_PER_ELEMENT
