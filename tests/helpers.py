"""Shared fixtures: the well/room/office example graph, id-independent
graph signatures for comparing conversion output against hand-built graphs,
and the queries that only tests make of graphs, PENMAN trees and triple
stores."""

from semgraph import kg
from semgraph.model import (
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    RoleSpec,
    SemanticGraph,
)
from semgraph.penman import CONST, PenmanTree


def fig1_graph() -> SemanticGraph:
    """Two-part example: a brightly lit room at the bottom of a well, which
    appears (with some probability) to be an office. 8 nodes, 7 edges."""
    g = SemanticGraph()
    bottom = g.add_concept("Bottom")
    well = g.add_concept("Well")
    lighting = g.add_concept("Lighting")
    room = g.add_concept("Room")
    isa = g.add_concept("IsA")
    office = g.add_concept("Office")
    degree = g.add_entity("4", ["5-level degree"])
    probability = g.add_entity("0.8", ["Probability"])
    g.add_edge(bottom, "Container", well)
    g.add_edge(bottom, "Contained", room)
    g.add_edge(lighting, "Object", room)
    g.add_edge(lighting, "Degree", degree)
    g.add_edge(isa, "A", room)
    g.add_edge(isa, "B", office)
    g.add_edge(isa, "Degree", probability)
    return g


def fig1_catalogue() -> ConceptCatalogue:
    return ConceptCatalogue([
        ConceptDefinition("Bottom", [RoleSpec("Container"), RoleSpec("Contained")]),
        ConceptDefinition("Lighting", [RoleSpec("Object"), RoleSpec("Degree")]),
        ConceptDefinition("IsA", [RoleSpec("A"), RoleSpec("B"), RoleSpec("Degree")]),
        ConceptDefinition("Well"),
        ConceptDefinition("Room"),
        ConceptDefinition("Office"),
    ])


def shape(graph: SemanticGraph):
    """Id-independent signature: node payload multiset plus edges over payloads.

    Only discriminating when node payloads are pairwise distinct, which the
    tests using it guarantee. ``structure_key`` compares graphs with their
    ids, while this compares conversion output against hand-built graphs
    whose ids differ.
    """
    payload = {}
    for node_id, node in graph.nodes.items():
        if isinstance(node, ConceptNode):
            payload[node_id] = ("concept", node.name)
        elif isinstance(node, EntityNode):
            payload[node_id] = ("entity", node.value, tuple(node.classes))
        else:
            payload[node_id] = ("omitted",)
    nodes = sorted(payload.values())
    edges = sorted((payload[e.source], e.label.name, e.label.index or 0,
                    payload[e.target]) for e in graph.edges)
    return nodes, edges


def structure_key(graph: SemanticGraph):
    """Hashable key identifying a graph up to edge order: node ids with their
    kinds and payloads (concept name, or entity value and classes), and the
    edges as a multiset."""
    nodes = []
    for node_id, node in graph.nodes.items():
        if isinstance(node, ConceptNode):
            nodes.append((node_id, "concept", node.name))
        elif isinstance(node, EntityNode):
            nodes.append((node_id, "entity", node.value, tuple(node.classes)))
        else:
            nodes.append((node_id, "omitted"))
    edges = sorted((e.source, e.label.name, e.label.index or 0, e.target)
                   for e in graph.edges)
    return tuple(sorted(nodes)), tuple(edges)


def in_edges(graph: SemanticGraph, node_id: str) -> list[Edge]:
    """The edges entering ``node_id``, in insertion order."""
    return [e for e in graph.edges if e.target == node_id]


def constants(tree: PenmanTree) -> list[str]:
    """The constant tokens of ``tree``, in surface order."""
    return [slot.value for slot in tree.slots if slot.kind == CONST]


def top_level_events(store: kg.TripleStore) -> list[str]:
    """The typed events that ``split_events`` roots its stores at: those that
    are not declared sub-events of another typed event."""
    return kg._top_level(kg._events(store.triples))
