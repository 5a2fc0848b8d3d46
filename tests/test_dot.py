import re

import pytest
from hypothesis import given, settings, strategies as st

from semgraph import dot
from semgraph.dot import to_dot
from semgraph.model import Edge, InvalidGraphError, RoleLabel, SemanticGraph
from graphgen import corpus
from helpers import fig1_graph

NODE_STMT = re.compile(r'^  ".*\[shape=')
EDGE_STMT = re.compile(r'^  ".*" -> "')


def _statement_counts(document):
    lines = document.splitlines()
    return (sum(1 for line in lines if NODE_STMT.match(line)),
            sum(1 for line in lines if EDGE_STMT.match(line)))


@settings(max_examples=200)
@given(st.text(st.sampled_from('\\"\nab') | st.characters()))
def test_quote_equals_the_replace_chain(text):
    chain = text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    assert dot._quote(text) == chain


def test_ids_sources_and_targets_are_written_as_they_are(monkeypatch):
    g = SemanticGraph()
    g.add_edge(g.add_concept('a"b'), "r", g.add_entity("v", ["k"]))
    quoted = []
    monkeypatch.setattr(dot, "_quote", lambda text: quoted.append(text) or text)
    assert to_dot(g) == ('digraph semanticgraph {\n  rankdir=TB;\n'
                         '  "n1" [shape=box, label="a"b"];\n'
                         '  "n2" [shape=ellipse, label="k\nv"];\n'
                         '  "n1" -> "n2" [label="r"];\n}\n')
    assert quoted == ['a"b', "k\nv", "r"]


def test_header_and_rank_direction():
    document = to_dot(SemanticGraph())
    assert document.startswith("digraph semanticgraph {")
    assert "rankdir=TB;" in document
    assert document.rstrip().endswith("}")


def test_omitted_node_is_grey_circle():
    g = SemanticGraph()
    g.add_omitted()
    document = to_dot(g)
    nodes, edges = _statement_counts(document)
    assert (nodes, edges) == (1, 0)
    assert 'shape=circle, style=filled, fillcolor=gray, label=""' in document


def test_concept_box_and_edge_label():
    g = SemanticGraph()
    bottom = g.add_concept("Bottom")
    well = g.add_concept("Well")
    g.add_edge(bottom, "Container", well)
    document = to_dot(g)
    assert f'"{bottom}" [shape=box, label="Bottom"];' in document
    assert f'"{bottom}" -> "{well}" [label="Container"];' in document


def test_indexed_edge_label_formatting():
    g = SemanticGraph()
    event = g.add_concept("Event")
    child = g.add_concept("E")
    g.add_edge(event, RoleLabel("subEvent", 1), child)
    g.add_edge(event, RoleLabel("subEvent", 2), child)
    document = to_dot(g)
    assert 'label="subEvent[2]"' in document


def test_entity_label_stacks_classes_above_value():
    g = SemanticGraph()
    g.add_entity("4", ["5-level degree"])
    assert '[shape=ellipse, label="5-level degree\\n4"];' in to_dot(g)
    g2 = SemanticGraph()
    g2.add_entity("v", ["C1", "C2"])
    assert 'label="C1\\nC2\\nv"' in to_dot(g2)


def test_classless_entity_label_is_value_only():
    g = SemanticGraph()
    g.add_entity("wd:Q1073320")
    assert 'label="wd:Q1073320"' in to_dot(g)


def test_label_escaping():
    g = SemanticGraph()
    g.add_concept('say "hi"\\now')
    document = to_dot(g)
    assert 'label="say \\"hi\\"\\\\now"' in document


def test_statement_counts_match_graph():
    for g in corpus(4242, 40):
        nodes, edges = _statement_counts(to_dot(g))
        assert nodes == len(g.nodes)
        assert edges == len(g.edges)


def test_fig1_has_eight_node_statements():
    nodes, edges = _statement_counts(to_dot(fig1_graph()))
    assert (nodes, edges) == (8, 7)


def test_deterministic_output():
    first = [to_dot(g) for g in corpus(99, 25)]
    second = [to_dot(g) for g in corpus(99, 25)]
    assert first == second


def test_invalid_graph_rejected():
    g = SemanticGraph()
    entity = g.add_entity("4")
    g.edges.append(Edge(entity, RoleLabel("X"), entity))
    with pytest.raises(InvalidGraphError) as exc:
        to_dot(g)
    assert exc.value.violations
