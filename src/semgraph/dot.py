"""DOT rendering: concept boxes, entity ellipses, grey omitted circles."""

from __future__ import annotations

from .model import ConceptNode, EntityNode, InvalidGraphError, SemanticGraph, validate


def _quote(text: str) -> str:
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return text.replace("\n", "\\n")


def to_dot(graph: SemanticGraph) -> str:
    """Render a lax-valid graph as DOT, one statement per node and per edge.

    Entity labels stack the class names above the value (joined with line
    breaks); edge labels are the role name, with ``[index]`` appended for
    indexed roles. Output is deterministic: nodes sorted by id, edges grouped
    under their source in insertion order.
    """
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    lines = ["digraph semanticgraph {", "  rankdir=TB;"]
    edge_lines = []  # after all node statements; only concepts have out-edges
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if isinstance(node, ConceptNode):
            lines.append(f'  "{_quote(node_id)}" [shape=box, label="{_quote(node.name)}"];')
            for edge in graph.out_edges(node_id):
                edge_lines.append(f'  "{_quote(edge.source)}" -> "{_quote(edge.target)}"'
                                  f' [label="{_quote(str(edge.label))}"];')
        elif isinstance(node, EntityNode):
            label = "\n".join([*node.classes, node.value])
            lines.append(f'  "{_quote(node_id)}" [shape=ellipse, label="{_quote(label)}"];')
        else:
            lines.append(f'  "{_quote(node_id)}" [shape=circle, style=filled,'
                         ' fillcolor=gray, label=""];')
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"
