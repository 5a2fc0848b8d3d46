import dataclasses
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from semgraph.model import (
    BAD_INDEX_SET,
    DANGLING_TARGET,
    DUPLICATE_ROLE_SLOT,
    EDGE_FROM_NON_CONCEPT,
    ENTITY_OUT_EDGE,
    INDEXING_MISMATCH,
    OMITTED_OUT_EDGE,
    UNKNOWN_CONCEPT,
    UNKNOWN_ROLE,
    VIOLATION_CODES,
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    GraphError,
    OmittedNode,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    merge,
    validate,
)
from semgraph.dot import to_dot
from semgraph.xmlio import from_xml, to_xml
import validate_oracle
from graphgen import CONCEPT_NAMES, ROLE_NAMES, corpus, random_graph
from helpers import fig1_catalogue, fig1_graph, shape, structure_key


class TestAddConcept:
    def test_single_concept(self):
        g = SemanticGraph()
        node_id = g.add_concept("Bottom")
        assert len(g.nodes) == 1
        assert g.nodes[node_id].name == "Bottom"

    def test_empty_name_rejected(self):
        g = SemanticGraph()
        with pytest.raises(GraphError):
            g.add_concept("")

    def test_duplicate_names_are_distinct_nodes(self):
        g = SemanticGraph()
        first = g.add_concept("Room")
        second = g.add_concept("Room")
        assert first != second
        assert len(g.nodes) == 2


@pytest.mark.parametrize("fail", [
    lambda g: g.add_concept(""),
    lambda g: g.add_entity(""),
    lambda g: g.add_entity("v", [""]),
    lambda g: g.add_entity("v", "Place"),
], ids=["concept-name", "entity-value", "entity-class", "entity-str-classes"])
def test_a_failed_add_takes_no_id(fail):
    g = SemanticGraph()
    with pytest.raises(GraphError):
        fail(g)
    assert g.nodes == {}
    assert g.add_concept("A") == "n1"
    with pytest.raises(GraphError):
        fail(g)
    assert g.add_omitted() == "n2"


@pytest.mark.parametrize("method, args", [
    ("add_concept", ("X",)), ("add_entity", ("v", ("A",))), ("add_omitted", ()),
], ids=["concept", "entity", "omitted"])
def test_fresh_ids_skip_ids_already_taken(method, args):
    g = from_xml('<semanticgraph version="1"><omitted id="n2"/></semanticgraph>')
    add = getattr(g, method)
    assert [add(*args), add(*args), add(*args)] == ["n1", "n3", "n4"]


class Name(str):
    """A str subclass, which the writers would write as its __str__ gives it."""

    def __str__(self):
        return "<"


# Each of these used to be accepted: a payload that is not a str then made
# to_xml or to_dot raise TypeError, and a subclass wrote what __str__ gives.
@pytest.mark.parametrize("add, message", [
    (lambda g: g.add_concept(5), "concept name must be a str, not the int 5"),
    (lambda g: g.add_concept(Name("X")), "concept name must be a str, not the Name 'X'"),
    (lambda g: g.add_entity(b"v"), "entity value must be a str, not the bytes b'v'"),
    (lambda g: g.add_entity(None), "entity value must be a str, not the NoneType None"),
    (lambda g: g.add_entity("v", b"AB"),
     "entity classes must be class names, not the bytes b'AB'"),
    (lambda g: g.add_entity("v", bytearray(b"AB")),
     "entity classes must be class names, not the bytearray bytearray(b'AB')"),
    (lambda g: g.add_entity("v", ["A", 5]), "entity class name must be a str, not the int 5"),
    (lambda g: g.add_entity("v", ("A", "")), "entity class name must be non-empty"),
    (lambda g: g.add_entity("v", ("A", Name("B"))),
     "entity class name must be a str, not the Name 'B'"),
], ids=["concept-int", "concept-subclass", "value-bytes", "value-none", "classes-bytes",
        "classes-bytearray", "class-int", "class-empty", "class-subclass"])
def test_a_payload_that_is_not_a_str_takes_no_node(add, message):
    g = SemanticGraph()
    with pytest.raises(GraphError) as exc:
        add(g)
    assert str(exc.value) == message
    assert g.nodes == {}


class TestAddEntity:
    def test_value_and_classes(self):
        g = SemanticGraph()
        node_id = g.add_entity("4", ["5-level degree"])
        node = g.nodes[node_id]
        assert node.value == "4"
        assert node.classes == ("5-level degree",)

    def test_classless_entity(self):
        g = SemanticGraph()
        node_id = g.add_entity("wd:Q1073320", [])
        assert g.nodes[node_id].classes == ()

    def test_empty_value_rejected(self):
        g = SemanticGraph()
        with pytest.raises(GraphError):
            g.add_entity("", [])

    def test_class_order_preserved(self):
        g = SemanticGraph()
        node_id = g.add_entity("x", ["B", "A", "C"])
        assert g.nodes[node_id].classes == ("B", "A", "C")

    def test_classes_are_a_tuple_of_their_own(self):
        classes = ["A"]
        g = SemanticGraph()
        node = g.nodes[g.add_entity("x", classes)]
        classes.append("")
        assert node.classes == ("A",)
        assert EntityNode("n1", "v", iter(["B"])).classes == ("B",)
        given = ("C",)
        assert EntityNode("n1", "v", given).classes is given
        with pytest.raises(AttributeError):
            node.classes.append("")

    @pytest.mark.parametrize("classes", ["Place", "", "x"])
    def test_a_str_is_not_taken_for_its_characters(self, classes):
        g = SemanticGraph()
        with pytest.raises(GraphError) as exc:
            g.add_entity("v", classes)
        assert str(exc.value) == f"entity classes must be class names, not the str {classes!r}"
        assert g.nodes == {}
        assert g.nodes[g.add_entity("v", [classes or "A"])].classes == (classes or "A",)

    @pytest.mark.parametrize("classes", [[""], ["A", ""]])
    def test_empty_class_name_rejected(self, classes):
        # to_xml would write <class name=""/>, which from_xml rejects.
        g = SemanticGraph()
        with pytest.raises(GraphError, match="^entity class name must be non-empty$"):
            g.add_entity("v", classes)
        assert g.nodes == {}


class TestFrozenNodes:
    """A node's fields cannot be reassigned, so the checks made when it is
    built hold for good, and the writers need not escape ids."""

    @pytest.mark.parametrize("node,field", [
        (ConceptNode("n1", "X"), "id"),
        (ConceptNode("n1", "X"), "name"),
        (EntityNode("n1", "v", ["k"]), "id"),
        (EntityNode("n1", "v", ["k"]), "value"),
        (EntityNode("n1", "v", ["k"]), "classes"),
        (OmittedNode("n1"), "id"),
    ], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
    @pytest.mark.parametrize("value", ["a&b", ""])
    def test_fields_cannot_be_reassigned(self, node, field, value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, value)
        assert getattr(node, field) != value

    def test_a_reassigned_id_cannot_reach_the_writers(self):
        g = SemanticGraph()
        n = ConceptNode("n1", "X")
        with pytest.raises(dataclasses.FrozenInstanceError):
            n.id = "a&b"
        g.nodes[n.id] = n
        assert from_xml(to_xml(g)).nodes == {"n1": n}


class TestImmutableEdges:
    """An edge is a named tuple built once with its final label, so the
    per-source lists that insertion checks and the writers read always agree
    with its fields."""

    @pytest.mark.parametrize("field", ["source", "label", "target"])
    def test_fields_cannot_be_assigned(self, field):
        g = SemanticGraph()
        a, b, c = g.add_concept("A"), g.add_concept("B"), g.add_concept("C")
        e = g.add_edge(a, "r", c)
        g.add_edge(b, "r", c)
        with pytest.raises(AttributeError):
            setattr(e, field, {"label": RoleLabel("s")}.get(field, b))
        assert not hasattr(e, "__dict__")
        assert g.edges[0] == Edge(a, RoleLabel("r"), c) and g.out_edges(a) == [e]
        assert validate(g) == []

    def test_an_edge_is_a_named_tuple(self):
        e = Edge("a", RoleLabel("r", 2), "b")
        assert e == ("a", RoleLabel("r", 2), "b")
        assert hash(e) == hash(("a", RoleLabel("r", 2), "b"))
        assert list(e) == [e.source, e.label, e.target]
        assert e._replace(target="c") == Edge("a", RoleLabel("r", 2), "c")
        assert (str(e), repr(e)) == (
            "a -r[2]-> b", "Edge(source='a', label=RoleLabel(name='r', index=2), target='b')")


class TestAddOmitted:
    def test_minimal(self):
        g = SemanticGraph()
        g.add_omitted()
        assert len(g.nodes) == 1
        assert not g.edges

    def test_unfilled_role_points_to_omitted(self):
        g = SemanticGraph()
        lighting = g.add_concept("Lighting")
        hole = g.add_omitted()
        g.add_edge(lighting, "Source", hole)
        assert validate(g) == []

    def test_two_calls_two_nodes(self):
        g = SemanticGraph()
        assert g.add_omitted() != g.add_omitted()


class TestAddEdge:
    def test_basic_edge(self):
        g = SemanticGraph()
        bottom = g.add_concept("Bottom")
        well = g.add_concept("Well")
        edge = g.add_edge(bottom, "Container", well)
        assert g.edges == [edge]
        assert str(edge) == f"{bottom} -Container-> {well}"

    def test_entity_source_rejected(self):
        g = SemanticGraph()
        entity = g.add_entity("4")
        target = g.add_concept("X")
        with pytest.raises(GraphError) as exc:
            g.add_edge(entity, "X", target)
        assert exc.value.code == ENTITY_OUT_EDGE

    def test_omitted_source_rejected(self):
        g = SemanticGraph()
        hole = g.add_omitted()
        target = g.add_concept("X")
        with pytest.raises(GraphError) as exc:
            g.add_edge(hole, "X", target)
        assert exc.value.code == OMITTED_OUT_EDGE

    def test_missing_endpoints_rejected(self):
        g = SemanticGraph()
        concept = g.add_concept("X")
        with pytest.raises(GraphError) as exc:
            g.add_edge(concept, "r", "ghost")
        assert exc.value.code == DANGLING_TARGET
        with pytest.raises(GraphError) as exc:
            g.add_edge("ghost", "r", concept)
        assert exc.value.code == EDGE_FROM_NON_CONCEPT

    def test_indexed_slots_then_duplicate(self):
        g = SemanticGraph()
        event = g.add_concept("Event")
        e1 = g.add_concept("E1")
        e2 = g.add_concept("E2")
        g.add_edge(event, RoleLabel("subEvent", 1), e1)
        g.add_edge(event, RoleLabel("subEvent", 2), e2)
        assert len(g.edges) == 2
        with pytest.raises(GraphError) as exc:
            g.add_edge(event, RoleLabel("subEvent", 1), e2)
        assert exc.value.code == DUPLICATE_ROLE_SLOT

    def test_duplicate_plain_slot(self):
        g = SemanticGraph()
        a = g.add_concept("A")
        b = g.add_concept("B")
        g.add_edge(a, "r", b)
        with pytest.raises(GraphError) as exc:
            g.add_edge(a, "r", a)
        assert exc.value.code == DUPLICATE_ROLE_SLOT

    def test_non_contiguous_index_rejected(self):
        g = SemanticGraph()
        a = g.add_concept("A")
        b = g.add_concept("B")
        g.add_edge(a, RoleLabel("r", 1), b)
        with pytest.raises(GraphError) as exc:
            g.add_edge(a, RoleLabel("r", 3), b)
        assert exc.value.code == BAD_INDEX_SET

    @pytest.mark.parametrize("source,label,target,code,message", [
        ("n1", RoleLabel("r"), "n2", DUPLICATE_ROLE_SLOT,
         "adding 'r' to 'n1' would break the slot rule (each slot once, indices 1..k)"),
        ("n1", RoleLabel("s", 3), "n2", BAD_INDEX_SET,
         "adding 's[3]' to 'n1' would break the slot rule (each slot once, indices 1..k)"),
        ("n3", RoleLabel("r"), "n2", ENTITY_OUT_EDGE,
         "entity 'n3' has an outgoing edge; entities are leaves"),
        ("n4", RoleLabel("r"), "n2", OMITTED_OUT_EDGE,
         "omitted node 'n4' has an outgoing edge"),
        ("zz", RoleLabel("r"), "n2", EDGE_FROM_NON_CONCEPT,
         "edge source 'zz' is not a node in the graph"),
        ("n1", RoleLabel("t"), "zz", DANGLING_TARGET,
         "edge target 'zz' is not a node in the graph"),
    ], ids=["filled-slot", "index-gap", "entity-source", "omitted-source",
            "missing-source", "missing-target"])
    def test_rejection_code_and_message(self, source, label, target, code, message):
        g = SemanticGraph()
        a, b = g.add_concept("A"), g.add_concept("B")
        g.add_entity("4")
        g.add_omitted()
        g.add_edge(a, "r", b)
        g.add_edge(a, RoleLabel("s", 1), b)
        edges = list(g.edges)
        with pytest.raises(GraphError) as exc:
            g.add_edge(source, label, target)
        assert (type(exc.value), exc.value.code, str(exc.value)) == (GraphError, code, message)
        assert g.edges == edges and g.out_edges(a) == edges
        edge = g.add_edge(a, RoleLabel("s", 2), b)
        assert g.edges[-1] is edge and g.out_edges(a)[-1] is edge

    def test_role_label_invariants(self):
        with pytest.raises(ValueError):
            RoleLabel("")
        with pytest.raises(ValueError):
            RoleLabel("r", 0)
        assert str(RoleLabel("r", 2)) == "r[2]"

    @pytest.mark.parametrize("build,message", [
        (lambda: RoleLabel(""), "role name must be non-empty"),
        (lambda: RoleLabel("r", 0), "role index must be >= 1"),
        (lambda: ConceptNode("a", ""), "concept name must be non-empty"),
        (lambda: ConceptNode("a b", "X"), "invalid node id 'a b'"),
        (lambda: EntityNode("e", ""), "entity value must be non-empty"),
        (lambda: OmittedNode(""), "invalid node id ''"),
        (lambda: EntityNode("e", "v", ["k", ""]), "entity class name must be non-empty"),
        (lambda: EntityNode("e", "v", "Place"),
         "entity classes must be class names, not the str 'Place'"),
        (lambda: ConceptDefinition(""), "concept definition name must be non-empty"),
        (lambda: RoleSpec(""), "role name must be non-empty"),
        (lambda: RoleLabel("op", True), "role index must be an int, got True"),
        (lambda: RoleLabel("op", False), "role index must be an int, got False"),
        (lambda: RoleLabel("op", "2"), "role index must be an int, got '2'"),
        (lambda: RoleLabel("op", 2.0), "role index must be an int, got 2.0"),
        (lambda: RoleLabel(5), "role name must be a str, not the int 5"),
        (lambda: RoleLabel(Name("op"), 1), "role name must be a str, not the Name 'op'"),
        (lambda: RoleSpec(5), "role name must be a str, not the int 5"),
        (lambda: ConceptDefinition(5), "concept definition name must be a str, not the int 5"),
        (lambda: ConceptNode("a", b"X"), "concept name must be a str, not the bytes b'X'"),
        (lambda: EntityNode("e", 5), "entity value must be a str, not the int 5"),
        (lambda: EntityNode("e", "v", b"AB"),
         "entity classes must be class names, not the bytes b'AB'"),
        (lambda: EntityNode("e", "v", (5,)), "entity class name must be a str, not the int 5"),
    ], ids=["role-name", "role-index", "concept-name", "concept-id", "entity-value",
            "omitted-id", "entity-class", "entity-str-classes", "definition-name",
            "role-spec-name", "role-index-true", "role-index-false", "role-index-str",
            "role-index-float", "role-name-int", "role-name-subclass", "role-spec-name-int",
            "definition-name-int", "concept-name-bytes", "entity-value-int",
            "entity-bytes-classes", "entity-class-int"])
    def test_record_faults_are_graph_errors(self, build, message):
        with pytest.raises(GraphError) as exc:
            build()
        assert str(exc.value) == message

    @pytest.mark.parametrize("source,target", [
        ("n2", "n1"), ("n3", "n1"), ("n1", "ghost"), ("ghost", "n1"), ("n2", "ghost"),
    ], ids=["entity", "omitted", "dangling", "no-source", "entity-and-dangling"])
    def test_endpoint_fault_matches_validate(self, source, target):
        g = SemanticGraph()
        g.add_concept("X")
        g.add_entity("4")
        g.add_omitted()
        with pytest.raises(GraphError) as exc:
            g.add_edge(source, "r", target)
        assert g.edges == []
        g.edges.append(Edge(source, RoleLabel("r"), target))
        first = validate(g)[0]
        assert (exc.value.code, str(exc.value)) == (first.code, first.message)


class TestValidate:
    def test_fig1_strict_is_clean(self):
        assert validate(fig1_graph(), fig1_catalogue(), "strict") == []

    def test_entity_out_edge_only(self):
        g = SemanticGraph()
        entity = g.add_entity("4")
        g.edges.append(Edge(entity, RoleLabel("X"), entity))
        assert [v.code for v in validate(g)] == [ENTITY_OUT_EDGE]

    def test_gapped_index_set(self):
        g = SemanticGraph()
        a = g.add_concept("A")
        b = g.add_concept("B")
        g.edges.append(Edge(a, RoleLabel("subEvent", 1), b))
        g.edges.append(Edge(a, RoleLabel("subEvent", 3), b))
        assert [v.code for v in validate(g)] == [BAD_INDEX_SET]

    def test_huge_index_checked_in_constant_memory(self):
        # A role index comes from outside (an XML attribute), so the check may
        # not build the range 1..index. The child's address space is capped so
        # that a check that does fails with MemoryError instead of filling RAM.
        script = (
            "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from semgraph.model import Edge, RoleLabel, SemanticGraph, validate\n"
            "g = SemanticGraph(); a = g.add_concept('A')\n"
            "g.edges.append(Edge(a, RoleLabel('r', 10**12), a))\n"
            "print(*[v.code for v in validate(g)])\n")
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [BAD_INDEX_SET]

    def test_strict_requires_catalogue(self):
        with pytest.raises(ValueError):
            validate(SemanticGraph(), None, "strict")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            validate(SemanticGraph(), None, "pedantic")

    def test_lax_ignores_catalogue_misses(self):
        g = SemanticGraph()
        g.add_concept("Nowhere")
        assert validate(g, ConceptCatalogue(), "lax") == []
        assert [v.code for v in validate(g, ConceptCatalogue(), "strict")] == [UNKNOWN_CONCEPT]

    @pytest.mark.parametrize("key", ["a&b", "n2"])
    @pytest.mark.parametrize("check", [
        validate, lambda g: validate(g, ConceptCatalogue(), "strict"), to_xml, to_dot,
    ], ids=["lax", "strict", "to_xml", "to_dot"])
    def test_node_key_that_is_not_its_id_is_a_graph_error(self, check, key):
        # The writers write keys: a key that is not its node's id could
        # write XML that from_xml rejects, or a DOT node no edge meets.
        g = SemanticGraph()
        g.nodes[key] = ConceptNode("n1", "X")
        with pytest.raises(GraphError) as exc:
            check(g)
        assert (type(exc.value), exc.value.code, str(exc.value)) == (
            GraphError, None, f"node key {key!r} is not the id of its node 'n1'")

    def test_purity(self):
        g = SemanticGraph()
        entity = g.add_entity("4")
        g.edges.append(Edge(entity, RoleLabel("X"), "ghost"))
        assert validate(g) == validate(g)


@st.composite
def _faulty_graphs(draw):
    """A generated graph with edges appended past the ``add_edge`` checks, from
    and to any node or a missing one, so that sources interleave in ``edges``
    and slots repeat or leave gaps. ``validate`` may first run on the graph
    before the appended edges, so that its adjacency is filled in two steps."""
    graph = random_graph(random.Random(draw(st.integers(0, 2**32 - 1))),
                         max_nodes=draw(st.integers(0, 12)), max_edges=draw(st.integers(0, 30)))
    if draw(st.booleans()):
        validate(graph)
    ids = [*graph.nodes, "ghost"]
    for _ in range(draw(st.integers(0, 10))):
        graph.edges.append(Edge(draw(st.sampled_from(ids)),
                                RoleLabel(draw(st.sampled_from(["A", "B", ROLE_NAMES[0]])),
                                          draw(st.sampled_from([None, 1, 2, 3, 5]))),
                                draw(st.sampled_from(ids))))
    return graph


@st.composite
def _catalogues(draw):
    catalogue = ConceptCatalogue()
    for name in draw(st.lists(st.sampled_from(CONCEPT_NAMES), unique=True)):
        roles = draw(st.lists(st.sampled_from([*ROLE_NAMES, "A", "B"]), unique=True))
        catalogue.define(ConceptDefinition(name, [RoleSpec(role, draw(st.booleans()))
                                                  for role in roles]))
    return catalogue


def _reported(violations):
    """Code, subject (an edge by identity) and message of each violation, in order."""
    return [(v.code, v.subject if isinstance(v.subject, str) else id(v.subject), v.message)
            for v in violations]


class TestAgainstEdgeKeyedValidate:
    """The per-source ``validate`` against the edge-keyed one it replaced."""

    @settings(max_examples=400)
    @given(_faulty_graphs(), _catalogues(), st.sampled_from(["lax", "strict"]))
    def test_same_violations_in_the_same_order(self, graph, catalogue, mode):
        expected = validate_oracle.validate(graph, catalogue, mode)
        assert _reported(validate(graph, catalogue, mode)) == _reported(expected)

    def test_generated_graphs_agree(self):
        roles = [RoleSpec(role, i % 2 == 0) for i, role in enumerate(ROLE_NAMES)]
        catalogue = ConceptCatalogue([ConceptDefinition(name, roles)
                                      for name in CONCEPT_NAMES[::2]])
        for graph in corpus(11, 40, max_nodes=60, max_edges=120):
            for mode in ("lax", "strict"):
                assert _reported(validate(graph, catalogue, mode)) == _reported(
                    validate_oracle.validate(graph, catalogue, mode))


def _matrix_entity_out_edge():
    g = SemanticGraph()
    entity = g.add_entity("4")
    g.edges.append(Edge(entity, RoleLabel("r"), entity))
    return g, None


def _matrix_omitted_out_edge():
    g = SemanticGraph()
    hole = g.add_omitted()
    g.edges.append(Edge(hole, RoleLabel("r"), hole))
    return g, None


def _matrix_edge_from_non_concept():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge("ghost", RoleLabel("r"), concept))
    return g, None


def _matrix_dangling_target():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge(concept, RoleLabel("r"), "ghost"))
    return g, None


def _matrix_duplicate_role_slot():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge(concept, RoleLabel("r"), concept))
    g.edges.append(Edge(concept, RoleLabel("r"), concept))
    return g, None


def _matrix_bad_index_set():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge(concept, RoleLabel("r", 2), concept))
    return g, None


def _matrix_unknown_concept():
    g = SemanticGraph()
    g.add_concept("Z")
    return g, ConceptCatalogue()


def _matrix_unknown_role():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge(concept, RoleLabel("x"), concept))
    return g, ConceptCatalogue([ConceptDefinition("A", [RoleSpec("r")])])


def _matrix_indexing_mismatch():
    g = SemanticGraph()
    concept = g.add_concept("A")
    g.edges.append(Edge(concept, RoleLabel("r"), concept))
    return g, ConceptCatalogue([ConceptDefinition("A", [RoleSpec("r", indexed=True)])])


VIOLATION_MATRIX = {
    ENTITY_OUT_EDGE: _matrix_entity_out_edge,
    OMITTED_OUT_EDGE: _matrix_omitted_out_edge,
    EDGE_FROM_NON_CONCEPT: _matrix_edge_from_non_concept,
    DANGLING_TARGET: _matrix_dangling_target,
    DUPLICATE_ROLE_SLOT: _matrix_duplicate_role_slot,
    BAD_INDEX_SET: _matrix_bad_index_set,
    UNKNOWN_CONCEPT: _matrix_unknown_concept,
    UNKNOWN_ROLE: _matrix_unknown_role,
    INDEXING_MISMATCH: _matrix_indexing_mismatch,
}


@pytest.mark.parametrize("code", sorted(VIOLATION_CODES))
def test_violation_matrix_each_code_exactly_once(code):
    graph, catalogue = VIOLATION_MATRIX[code]()
    assert len(graph.nodes) <= 3
    mode = "strict" if catalogue is not None else "lax"
    violations = validate(graph, catalogue, mode)
    assert [v.code for v in violations] == [code]


def test_strict_only_codes_absent_in_lax():
    for code in (UNKNOWN_CONCEPT, UNKNOWN_ROLE, INDEXING_MISMATCH):
        graph, _ = VIOLATION_MATRIX[code]()
        assert validate(graph, None, "lax") == []


class TestMerge:
    def test_fig1_from_two_halves(self):
        right = SemanticGraph()
        bottom = right.add_concept("Bottom")
        well = right.add_concept("Well")
        lighting = right.add_concept("Lighting")
        room_r = right.add_concept("Room")
        degree = right.add_entity("4", ["5-level degree"])
        right.add_edge(bottom, "Container", well)
        right.add_edge(bottom, "Contained", room_r)
        right.add_edge(lighting, "Object", room_r)
        right.add_edge(lighting, "Degree", degree)

        left = SemanticGraph()
        isa = left.add_concept("IsA")
        office = left.add_concept("Office")
        room_l = left.add_concept("Room")
        probability = left.add_entity("0.8", ["Probability"])
        left.add_edge(isa, "A", room_l)
        left.add_edge(isa, "B", office)
        left.add_edge(isa, "Degree", probability)

        combined = merge(right, left, [(room_r, room_l)])
        assert len(combined.nodes) == 8
        assert len(combined.edges) == 7
        assert shape(combined) == shape(fig1_graph())
        assert validate(combined) == []

    def test_merge_with_empty_is_identity(self):
        g = fig1_graph()
        merged = merge(g, SemanticGraph(), [])
        assert structure_key(merged) == structure_key(g)

    def test_incompatible_names_rejected(self):
        g1 = SemanticGraph()
        room = g1.add_concept("Room")
        g2 = SemanticGraph()
        office = g2.add_concept("Office")
        with pytest.raises(GraphError):
            merge(g1, g2, [(room, office)])

    def test_kind_mismatch_rejected(self):
        g1 = SemanticGraph()
        concept = g1.add_concept("Room")
        g2 = SemanticGraph()
        entity = g2.add_entity("Room")
        with pytest.raises(GraphError):
            merge(g1, g2, [(concept, entity)])

    def test_entity_fusion_needs_equal_payload(self):
        g1 = SemanticGraph()
        a = g1.add_entity("4", ["X"])
        g2 = SemanticGraph()
        b = g2.add_entity("4", ["Y"])
        with pytest.raises(GraphError):
            merge(g1, g2, [(a, b)])

    @pytest.mark.parametrize("index", [None, 1])
    def test_fused_nodes_filling_same_slot_rejected(self, index):
        g1, g2 = SemanticGraph(), SemanticGraph()
        room1, room2 = g1.add_concept("Room"), g2.add_concept("Room")
        g1.add_edge(room1, RoleLabel("r", index), g1.add_entity("a"))
        g2.add_edge(room2, RoleLabel("r", index), g2.add_entity("b"))
        with pytest.raises(GraphError) as exc:
            merge(g1, g2, [(room1, room2)])
        assert exc.value.code == DUPLICATE_ROLE_SLOT

    def test_fused_nodes_with_distinct_slots_merge_valid(self):
        g1, g2 = SemanticGraph(), SemanticGraph()
        room1, room2 = g1.add_concept("Room"), g2.add_concept("Room")
        g1.add_edge(room1, "r", g1.add_entity("a"))
        g2.add_edge(room2, "s", g2.add_entity("b"))
        merged = merge(g1, g2, [(room1, room2)])
        assert len(merged.edges) == 2
        assert validate(merged) == []

    def test_unknown_correspondence_id_rejected(self):
        g1 = SemanticGraph()
        g2 = SemanticGraph()
        g2.add_concept("A")
        with pytest.raises(GraphError):
            merge(g1, g2, [("nope", "n1")])

    def test_correspondence_id_not_in_the_second_graph_rejected(self):
        g1, g2 = SemanticGraph(), SemanticGraph()
        g1.add_concept("A")
        with pytest.raises(GraphError,
                           match="^correspondence id 'zz' is not in the second graph$"):
            merge(g1, g2, [("n1", "zz")])

    @pytest.mark.parametrize("correspondence", [
        [("n1", "n1"), ("n1", "n2")], [("n1", "n1"), ("n2", "n1")],
    ], ids=["first", "second"])
    def test_node_repeated_in_correspondence_rejected(self, correspondence):
        g1, g2 = SemanticGraph(), SemanticGraph()
        for g in (g1, g2):
            g.add_concept("A")
            g.add_concept("A")
        with pytest.raises(GraphError,
                           match="^a node may appear only once in the correspondence$"):
            merge(g1, g2, correspondence)

    def test_omitted_nodes_fuse(self):
        g1, g2 = SemanticGraph(), SemanticGraph()
        g1.add_edge(g1.add_concept("A"), "r", hole1 := g1.add_omitted())
        g2.add_edge(g2.add_concept("B"), "s", hole2 := g2.add_omitted())
        merged = merge(g1, g2, [(hole1, hole2)])
        assert len(merged.nodes) == 3
        assert [(e.source, str(e.label), e.target) for e in merged.edges] == [
            ("n1", "r", "n2"), ("n3", "s", "n2")]
        assert validate(merged) == []

    @pytest.mark.parametrize("operand", [0, 1], ids=["first", "second"])
    @pytest.mark.parametrize("end,code", [("source", EDGE_FROM_NON_CONCEPT),
                                          ("target", DANGLING_TARGET)])
    def test_endpoint_outside_an_operand_is_a_graph_error(self, operand, end, code):
        graphs = [fig1_graph(), fig1_graph()]
        g = graphs[operand]
        g.edges.append(Edge("zz", RoleLabel("t"), "n1") if end == "source"
                       else Edge("n1", RoleLabel("t"), "zz"))
        with pytest.raises(GraphError) as exc:
            merge(*graphs)
        [fault] = validate(g)
        assert (type(exc.value), exc.value.code, str(exc.value)) == (
            GraphError, code, fault.message)

    def test_other_invalid_operands_are_copied(self):
        g = SemanticGraph()
        a, e = g.add_concept("A"), g.add_entity("4")
        g.edges += [Edge(e, RoleLabel("r"), a), Edge(a, RoleLabel("r"), e),
                    Edge(a, RoleLabel("r"), a), Edge(a, RoleLabel("s", 2), a)]
        merged = merge(SemanticGraph(), g)
        assert structure_key(merged) == structure_key(g)
        assert [v.code for v in validate(merged)] == [v.code for v in validate(g)] == [
            ENTITY_OUT_EDGE, DUPLICATE_ROLE_SLOT, BAD_INDEX_SET]

    def test_inputs_not_mutated(self):
        g1 = fig1_graph()
        g2 = fig1_graph()
        before = (dict(g1.nodes), list(g1.edges))
        merge(g1, g2, [])
        assert (g1.nodes, g1.edges) == before


def _filled_slots_graph() -> SemanticGraph:
    g = SemanticGraph()
    a = g.add_concept("A")
    b = g.add_concept("B")
    g.add_edge(a, "r", b)
    g.add_edge(a, RoleLabel("s", 1), b)
    g.add_edge(a, RoleLabel("s", 2), b)
    return g


class TestAdjacencyCoherence:
    """The per-source adjacency agrees with ``edges`` however edges got there."""

    @pytest.mark.parametrize("build", [
        lambda: merge(SemanticGraph(), _filled_slots_graph()),
        lambda: from_xml(to_xml(_filled_slots_graph())),
    ], ids=["merge", "from_xml"])
    @pytest.mark.parametrize("label,code", [
        (RoleLabel("r"), DUPLICATE_ROLE_SLOT),
        (RoleLabel("s", 2), DUPLICATE_ROLE_SLOT),
        (RoleLabel("s", 4), BAD_INDEX_SET),
    ])
    def test_add_edge_sees_copied_slots(self, build, label, code):
        g = build()
        with pytest.raises(GraphError) as exc:
            g.add_edge("n1", label, "n2")
        assert exc.value.code == code

    def test_add_edge_continues_copied_index_set(self):
        g = from_xml(to_xml(_filled_slots_graph()))
        g.add_edge("n1", RoleLabel("s", 3), "n1")
        assert [str(e.label) for e in g.out_edges("n1")] == ["r", "s[1]", "s[2]", "s[3]"]

    def test_directly_appended_edge_is_seen(self):
        g = _filled_slots_graph()
        g.out_edges("n1")  # index the edges built so far
        g.edges.append(Edge("n2", RoleLabel("t"), "n1"))
        assert [str(e) for e in g.out_edges("n2")] == ["n2 -t-> n1"]
        assert '<concept id="n2" name="B"><role name="t" target="n1"/></concept>' in to_xml(g)
        assert '"n2" -> "n1" [label="t"];' in to_dot(g)
        with pytest.raises(GraphError) as exc:
            g.add_edge("n2", "t", "n2")
        assert exc.value.code == DUPLICATE_ROLE_SLOT

    def test_out_edges_is_a_copy(self):
        g = _filled_slots_graph()
        g.out_edges("n1").clear()
        assert len(g.out_edges("n1")) == 3


class TestStructureKey:
    def test_ids_payloads_and_edge_multiset(self):
        g = fig1_graph()
        reordered = SemanticGraph()
        reordered.nodes.update(g.nodes)
        reordered.edges.extend(reversed(g.edges))
        assert structure_key(reordered) == structure_key(g)
        assert structure_key(g) == structure_key(reordered)
        renamed = fig1_graph()
        renamed.nodes["n1"] = ConceptNode("n1", "Top")
        assert structure_key(renamed) != structure_key(g)
        twice = fig1_graph()
        twice.edges.append(twice.edges[0])
        assert structure_key(twice) != structure_key(g)

    def test_node_kinds_distinguished(self):
        concept, entity = SemanticGraph(), SemanticGraph()
        concept.add_concept("4")
        entity.add_entity("4")
        assert structure_key(concept) != structure_key(entity)


class TestCatalogue:
    def test_define_and_lookup(self):
        catalogue = ConceptCatalogue()
        catalogue.define(ConceptDefinition(
            "Bottom", [RoleSpec("Container"), RoleSpec("Contained")]))
        definition = catalogue.get("Bottom")
        assert [r.name for r in definition.roles] == ["Container", "Contained"]

    def test_indexed_flag_retrievable(self):
        catalogue = ConceptCatalogue([
            ConceptDefinition("Event", [RoleSpec("subEvent", indexed=True)])])
        assert catalogue.get("Event").role("subEvent").indexed

    def test_redefinition_rejected(self):
        catalogue = ConceptCatalogue([ConceptDefinition("Bottom")])
        with pytest.raises(GraphError):
            catalogue.define(ConceptDefinition("Bottom"))

    def test_duplicate_role_names_rejected(self):
        with pytest.raises(GraphError):
            ConceptDefinition("A", [RoleSpec("r"), RoleSpec("r", indexed=True)])

    def test_definitions_are_frozen_with_a_tuple_of_roles(self):
        # Either change would make catalogue_to_xml write a catalogue that
        # catalogue_from_xml rejects.
        roles = [RoleSpec("r")]
        definition = ConceptDefinition("A", roles)
        roles.append(RoleSpec("r"))
        assert definition.roles == (RoleSpec("r"),)
        with pytest.raises(AttributeError):
            definition.roles.append(RoleSpec("r"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ConceptDefinition("A").name = ""
        assert ConceptDefinition("A").roles == ()


@given(st.integers(0, 10**9))
def test_add_built_graphs_always_lax_valid(seed):
    g = random_graph(random.Random(seed), max_nodes=12, max_edges=20)
    assert validate(g) == []


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_merge_counts_additive(seed1, seed2):
    g1 = random_graph(random.Random(seed1), max_nodes=8, max_edges=12)
    g2 = random_graph(random.Random(seed2), max_nodes=8, max_edges=12)
    combined = merge(g1, g2, [])
    assert len(combined.nodes) == len(g1.nodes) + len(g2.nodes)
    assert len(combined.edges) == len(g1.edges) + len(g2.edges)
    assert validate(combined) == []


@given(st.integers(0, 10**9))
def test_leaves_have_no_out_edges_after_validation(seed):
    g = random_graph(random.Random(seed), max_nodes=12, max_edges=20)
    assert validate(g) == []
    for node_id, node in g.nodes.items():
        if isinstance(node, (EntityNode, OmittedNode)):
            assert not g.out_edges(node_id)


@given(st.integers(0, 10**9))
def test_indexed_role_groups_are_contiguous(seed):
    g = random_graph(random.Random(seed), max_nodes=12, max_edges=25)
    groups = {}
    for edge in g.edges:
        if edge.label.index is not None:
            groups.setdefault((edge.source, edge.label.name), []).append(edge.label.index)
    for indices in groups.values():
        assert sorted(indices) == list(range(1, len(indices) + 1))


def test_node_ids_never_reused():
    g = SemanticGraph()
    ids = {g.add_concept("A"), g.add_entity("v"), g.add_omitted()}
    assert len(ids) == 3
    assert all(isinstance(g.nodes[i], kind) for i, kind in
               zip(sorted(ids), (ConceptNode, EntityNode, OmittedNode)))
