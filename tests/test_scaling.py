"""A scaling gate with no clock: the Python and C calls a command makes,
counted with ``sys.setprofile``, grow linearly with its input.

Each format is converted, and XML graphs and catalogues are read by the
other commands, at three sizes drawn from the benchmark's generators
(``bench/gen.py``). The library layers are gated by themselves too: one
``add_planned_edges`` call, ``merge``, ``from_xml``, ``validate``, the XML
and DOT writers and the catalogue reader. The gate compares marginal calls
per element across the two size steps, not totals, so that work done once
per command cancels out. A warm-up run first does the once-per-process
work, such as building the CLI's argument parser.

The insertion path is also bounded in exact calls per planned edge and per
node, and the XML readers in exact calls per element, so that a change that
adds calls to them fails.
"""

import contextlib
import gc
import io
import random
import sys

import pytest

import gen
from semgraph.cli import main
from semgraph.dot import _dot_parts
from semgraph.model import (
    OmittedNode, RoleLabel, SemanticGraph, add_planned_edges, merge, validate,
)
from semgraph.xmlio import _xml_parts, catalogue_from_xml, from_xml

FLAT = 1.1  # the second step's marginal calls per element, at most, over the first's

# format -> (file maker, three sizes in the maker's unit)
FORMATS = {
    "amr": (lambda rng, n: gen.amr_file(rng, "d", n), (20, 80, 320)),
    "conll": (lambda rng, n: gen.conll_file(rng, "d", n), (20, 80, 320)),
    "umr": (gen.umr_file, (12, 48, 192)),
    "ttl": (lambda rng, n: gen.turtle_file(rng, n)[:2], (20, 80, 320)),
    "ucca": (gen.ucca_file, (200, 800, 3200)),
}


def count_calls(run) -> int:
    """The Python and C function calls made while ``run()`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return calls


def marginals(points: list[tuple[int, int]]) -> list[float]:
    """Calls per element added, between each (elements, calls) point and the next."""
    return [(c2 - c1) / (e2 - e1) for (e1, c1), (e2, c2) in zip(points, points[1:])]


def run(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(args) == 0


def assert_layer_flat(layer, make, sizes) -> None:
    """Gate the marginal calls per element of ``layer(x)`` for ``make(size)
    -> (elements, x)`` at each of ``sizes``, smallest first, after a warm-up
    call on an input of its own. ``make`` runs outside the count."""
    layer(make(sizes[0])[1])
    points = []
    for size in sizes:
        elements, x = make(size)
        points.append((elements, count_calls(lambda: layer(x))))
    first, second = marginals(points)
    assert second <= FLAT * first, points


def assert_flat(sized: list[tuple[int, list[str]]]) -> None:
    """Run each (elements, command line), smallest input first, after a
    warm-up run of the first, and gate the marginal calls per element."""
    assert_layer_flat(run, lambda item: item, sized)


@pytest.mark.parametrize("fmt", FORMATS)
def test_convert_to_xml_makes_flat_calls_per_element(fmt, tmp_path):
    make, sizes = FORMATS[fmt]
    sized = []
    for size in sizes:
        text, counts = make(random.Random(1), size)
        path = tmp_path / f"{size}.{fmt}"
        path.write_text(text, encoding="utf-8")
        sized.append((counts.elements(), ["convert", "--from", fmt, "--to", "xml", str(path)]))
    assert_flat(sized)


# command -> its command line on a graph file, the catalogue file and an output file
XML_COMMANDS = {
    "validate": lambda graph, catalogue, out: ["validate", graph],
    "validate-strict": lambda graph, catalogue, out: [
        "validate", "--strict", "--catalogue", catalogue, graph],
    "render": lambda graph, catalogue, out: ["render", graph, "-o", out],
}


@pytest.mark.parametrize("command", XML_COMMANDS)
def test_xml_commands_make_flat_calls_per_element(command, tmp_path):
    spec = gen.catalogue_spec(random.Random(1), 100)
    catalogue = tmp_path / "catalogue.xml"
    catalogue.write_text(spec.xml(), encoding="utf-8")
    sized = []
    for nodes in (250, 1000, 4000):
        text, counts, _, _ = gen.xml_graph(random.Random(1), spec, nodes, 0, 0)
        path = tmp_path / f"{nodes}.xml"
        path.write_text(text, encoding="utf-8")
        sized.append((counts.elements(), XML_COMMANDS[command](
            str(path), str(catalogue), str(tmp_path / f"{nodes}.dot"))))
    assert_flat(sized)


def test_catalogue_list_makes_flat_calls_per_element(tmp_path):
    sized = []
    for concepts in (100, 400, 1600):
        spec = gen.catalogue_spec(random.Random(1), concepts)
        path = tmp_path / f"{concepts}.xml"
        path.write_text(spec.xml(), encoding="utf-8")
        elements = len(spec.concepts) + sum(map(len, spec.concepts.values()))
        sized.append((elements, ["catalogue", "list", str(path)]))
    assert_flat(sized)


@pytest.mark.xfail(strict=True, reason="add_edge copies the source's same-name edges"
                   " into the slot check, so k indexed calls on one hub cost O(k^2)")
def test_add_edge_on_one_hub_makes_flat_calls_per_edge():
    points = []
    for k in (250, 500, 1000):
        g = SemanticGraph()
        hub, leaf = g.add_concept("and"), g.add_concept("c")

        def fill():
            for i in range(1, k + 1):
                g.add_edge(hub, RoleLabel("op", i), leaf)

        points.append((k, count_calls(fill)))
    first, second = marginals(points)
    assert second <= FLAT * first, points


SPEC = gen.catalogue_spec(random.Random(1), 100)
SIZES = (250, 1000, 4000)


def xml_document(nodes: int, seed: int = 1) -> tuple[int, str]:
    """The elements and text of a generated lax-valid XML graph."""
    text, counts, _, _ = gen.xml_graph(random.Random(seed), SPEC, nodes, 0, 0)
    return counts.elements(), text


def wide_plan(edges: int):
    """A concept per four planned edges: two unindexed roles and one role
    indexed 1..2, each to an entity of its own."""
    g = SemanticGraph()
    plan = []
    for _ in range(edges // 4):
        source = g.add_concept("X")
        for label in ("ARG0", "ARG1", RoleLabel("op", 1), RoleLabel("op", 2)):
            plan.append((source, label, g.add_entity("v")))
    return len(plan), (g, plan)


def hub_plan(edges: int):
    """One concept planned ``edges`` times in one unindexed role, which the
    call relabels 1..k."""
    g = SemanticGraph()
    hub = g.add_concept("and")
    return edges, (g, [(hub, "op", g.add_entity("v")) for _ in range(edges)])


@pytest.mark.parametrize("plan", [wide_plan, hub_plan], ids=["wide", "hub"])
def test_add_planned_edges_makes_flat_calls_per_edge(plan):
    assert_layer_flat(lambda gp: add_planned_edges(*gp), plan, SIZES)


def merge_operands(nodes: int):
    """Two generated graphs and a correspondence that fuses their omitted
    nodes pairwise."""
    g1, g2 = from_xml(xml_document(nodes, 1)[1]), from_xml(xml_document(nodes, 2)[1])
    omitted = [[i for i, n in g.nodes.items() if isinstance(n, OmittedNode)] for g in (g1, g2)]
    elements = len(g1.nodes) + len(g1.edges) + len(g2.nodes) + len(g2.edges)
    return elements, (g1, g2, list(zip(*omitted)))


def test_merge_makes_flat_calls_per_element():
    assert_layer_flat(lambda operands: merge(*operands), merge_operands, SIZES)


def test_from_xml_makes_flat_calls_per_element():
    assert_layer_flat(from_xml, xml_document, SIZES)


def xml_graph(nodes: int) -> tuple[int, SemanticGraph]:
    """The elements of a generated lax-valid graph, and the graph as read,
    with its edges not yet indexed by source, as validate and the writers
    find them."""
    elements, text = xml_document(nodes)
    return elements, from_xml(text)


@pytest.mark.parametrize("mode", ["lax", "strict"])
def test_validate_makes_flat_calls_per_element(mode):
    catalogue = catalogue_from_xml(SPEC.xml())
    assert_layer_flat(lambda g: validate(g, catalogue, mode), xml_graph, SIZES)


@pytest.mark.parametrize("parts", [_xml_parts, _dot_parts], ids=["xml", "dot"])
def test_writers_make_flat_calls_per_element(parts):
    assert_layer_flat(lambda g: list(parts(g)), xml_graph, SIZES)


def catalogue_document(concepts: int) -> tuple[int, str]:
    """The elements and text of a generated catalogue."""
    spec = gen.catalogue_spec(random.Random(1), concepts)
    return len(spec.concepts) + sum(map(len, spec.concepts.values())), spec.xml()


def test_catalogue_from_xml_makes_flat_calls_per_element():
    assert_layer_flat(catalogue_from_xml, catalogue_document, (100, 400, 1600))


@contextlib.contextmanager
def collector_paused():
    """The cyclic collector off, then as it was. Its callbacks (Hypothesis
    installs one) are counted calls, and how many collections run depends on
    the tests before."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Exact calls per element of one call before the one-pass builder (kept as
# tests/builder_oracle.py) and before add_* made records without re-checking
# counter ids: 17.75 and 17.01 per planned edge of the wide and hub plans, 6
# per concept and 8 per entity node. The bounds undercut them, so that a
# revert fails.
@pytest.mark.parametrize("plan, bound", [(wide_plan, 10), (hub_plan, 9)], ids=["wide", "hub"])
def test_add_planned_edges_calls_per_edge(plan, bound):
    edges, (g, planned) = plan(4000)
    assert count_calls(lambda: add_planned_edges(g, planned)) / edges <= bound


@pytest.mark.parametrize("method, args, bound", [
    ("add_concept", ("X",), 3),
    ("add_entity", ("v", ("A",)), 4),
], ids=["concept", "entity"])
def test_add_node_calls_per_node(method, args, bound):
    def adds(nodes: int) -> int:
        add = getattr(SemanticGraph(), method)

        def run():
            for _ in range(nodes):
                add(*args)

        return count_calls(run)

    with collector_paused():
        assert (adds(2000) - adds(1000)) / 1000 <= bound


# Exact calls per element of one read before each reader checked and built
# an element in one start handler, with no re-check by the record's
# constructor: 15.76 for a graph and 13.44 for a catalogue. The bounds
# undercut them, so that a revert fails.
@pytest.mark.parametrize("reader, document, bound", [
    (from_xml, lambda: xml_document(4000), 11),
    (catalogue_from_xml, lambda: catalogue_document(1600), 10),
], ids=["graph", "catalogue"])
def test_xml_reader_calls_per_element(reader, document, bound):
    elements, text = document()
    with collector_paused():
        assert count_calls(lambda: reader(text)) / elements <= bound
