"""DOT rendering: concept boxes, entity ellipses, grey omitted circles."""

from __future__ import annotations

from typing import Iterator

from .model import ConceptNode, EntityNode, InvalidGraphError, SemanticGraph, validate


def _quote(text: str) -> str:
    # Three `in` tests cost less than one regex search, unlike the eight that
    # `xmlio._escape` would need.
    if "\\" not in text and '"' not in text and "\n" not in text:
        return text
    text = text.replace("\\", "\\\\").replace('"', '\\"')
    return text.replace("\n", "\\n")


def to_dot(graph: SemanticGraph) -> str:
    """Render a lax-valid graph as DOT, one statement per node and per edge.

    Entity labels stack the class names above the value (joined with line
    breaks); edge labels are the role name, with ``[index]`` appended for
    indexed roles. Output is deterministic: nodes sorted by id, edges grouped
    under their source in insertion order.
    """
    return "".join(_dot_parts(graph))


def _dot_parts(graph: SemanticGraph) -> Iterator[str]:
    """``to_dot``'s text, one line per part; the graph is validated before the first.
    Ids, edge sources and targets are written as they are, as in ``xmlio._xml_parts``."""
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    yield "digraph semanticgraph {\n"
    yield "  rankdir=TB;\n"
    node_ids = sorted(graph.nodes)
    for node_id in node_ids:
        node = graph.nodes[node_id]
        if isinstance(node, ConceptNode):
            yield f'  "{node_id}" [shape=box, label="{_quote(node.name)}"];\n'
        elif isinstance(node, EntityNode):
            label = "\n".join([*node.classes, node.value])
            yield f'  "{node_id}" [shape=ellipse, label="{_quote(label)}"];\n'
        else:
            yield (f'  "{node_id}" [shape=circle, style=filled,'
                   ' fillcolor=gray, label=""];\n')
    # Edges after all node statements; a valid graph's edges leave concepts only.
    out = graph._adjacency()
    for node_id in node_ids:
        for edge in out.get(node_id, ()):
            yield (f'  "{edge.source}" -> "{edge.target}"'
                   f' [label="{_quote(str(edge.label))}"];\n')
    yield "}\n"
