"""Line-based UCCA passage reading and conversion to semantic graphs."""

from __future__ import annotations

from dataclasses import dataclass

from .model import SemanticGraph, SourceError, _lines, add_planned_edges

UNIT_CONCEPT = "UCCA.Unit"
TERMINAL_CLASS = "UCCA.Terminal"

UNIT = "unit"
TERMINAL = "terminal"


class UccaError(SourceError):
    """Malformed UCCA passage; carries a line only."""


@dataclass
class UccaNode:
    id: str
    kind: str  # unit | terminal
    text: str | None = None


@dataclass
class UccaEdge:
    parent: str
    child: str
    category: str


@dataclass
class UccaPassage:
    nodes: dict[str, UccaNode]  # declaration order
    edges: list[UccaEdge]
    root: str


def parse_ucca(text: str) -> UccaPassage:
    """Read ``unit <id>`` / ``term <id> <text>`` / ``edge <parent> <child>
    <category>`` / ``root <id>`` records and validate the passage shape:
    terminals have no children, every non-root node has a parent, and the
    root is a declared unit. Blank lines and ``#`` comments are skipped.
    A shape error is located at the record at fault: the root record, the
    orphan node's record, or the last line when there is no root record.
    """
    nodes: dict[str, UccaNode] = {}
    node_lines: list[int] = []  # of each node's record, in declaration order
    edges: list[UccaEdge] = []
    edge_lines: list[int] = []
    root: str | None = None
    root_line = 0
    for lineno, (_, raw) in enumerate(_lines(text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        record = fields[0]
        if record == "unit":
            if len(fields) != 2:
                raise UccaError("unit record needs exactly one id", lineno)
            if fields[1] in nodes:
                raise UccaError(f"duplicate node id '{fields[1]}'", lineno)
            nodes[fields[1]] = UccaNode(fields[1], UNIT)
            node_lines.append(lineno)
        elif record == "term":
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                raise UccaError("term record needs an id and a text", lineno)
            if parts[1] in nodes:
                raise UccaError(f"duplicate node id '{parts[1]}'", lineno)
            nodes[parts[1]] = UccaNode(parts[1], TERMINAL, parts[2])
            node_lines.append(lineno)
        elif record == "edge":
            if len(fields) != 4:
                raise UccaError("edge record needs parent, child and category", lineno)
            edges.append(UccaEdge(fields[1], fields[2], fields[3]))
            edge_lines.append(lineno)
        elif record == "root":
            if len(fields) != 2:
                raise UccaError("root record needs exactly one id", lineno)
            if root is not None:
                raise UccaError("duplicate root declaration", lineno)
            root, root_line = fields[1], lineno
        else:
            raise UccaError(f"unknown record type '{record}'", lineno)
    if root is None:
        raise UccaError("missing root declaration", lineno)  # the last line
    if root not in nodes:
        raise UccaError(f"root '{root}' is not a declared node", root_line)
    if nodes[root].kind != UNIT:
        raise UccaError(f"root '{root}' must be a unit", root_line)
    has_parent = set()
    for edge, lineno in zip(edges, edge_lines):
        if edge.parent not in nodes:
            raise UccaError(f"edge references unknown node '{edge.parent}'", lineno)
        if edge.child not in nodes:
            raise UccaError(f"edge references unknown node '{edge.child}'", lineno)
        if nodes[edge.parent].kind == TERMINAL:
            raise UccaError(f"terminal '{edge.parent}' cannot have children", lineno)
        has_parent.add(edge.child)
    for node_id, lineno in zip(nodes, node_lines):
        if node_id != root and node_id not in has_parent:
            raise UccaError(f"node '{node_id}' has no parent and is not the root", lineno)
    return UccaPassage(nodes, edges, root)


def ucca_to_graph(passage: UccaPassage) -> SemanticGraph:
    """Convert a passage: units become "UCCA.Unit" concepts, terminals become
    UCCA.Terminal entities holding their text, and every passage edge becomes
    a role edge labelled with its category. Node and edge counts are
    preserved exactly; same-category siblings switch to indexed roles.
    """
    graph = SemanticGraph()
    node_of = {}
    for node_id, node in passage.nodes.items():
        if node.kind == UNIT:
            node_of[node_id] = graph.add_concept(UNIT_CONCEPT)
        else:
            node_of[node_id] = graph.add_entity(node.text, (TERMINAL_CLASS,))
    add_planned_edges(graph, [(node_of[edge.parent], edge.category, node_of[edge.child])
                              for edge in passage.edges])
    return graph
