"""The ``validate`` that the per-source one in ``semgraph.model`` replaced,
kept as an oracle for differential tests.

It keys one table entry per edge by ``(source, role name, index)`` to find
duplicate slots and gapped index sets, where the new one checks each
source's out-edges on the graph's adjacency.
"""

from __future__ import annotations

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
    ConceptCatalogue,
    ConceptNode,
    Edge,
    EntityNode,
    OmittedNode,
    RoleLabel,
    SemanticGraph,
    Violation,
)


def validate(graph: SemanticGraph, catalogue: ConceptCatalogue | None = None,
             mode: str = "lax") -> list[Violation]:
    """Check the graph and return all violations found (empty list = valid).

    Both modes enforce the structural rules: edge endpoints must exist, only
    concepts may own outgoing edges, role slots are unique, and index sets are
    contiguous from 1. Strict mode needs a catalogue and additionally checks
    that every concept name is defined, every edge label is a declared role of
    its source concept, and indexed edges appear exactly on indexed roles.
    Entity class names are not checked against the catalogue.
    """
    if mode not in ("lax", "strict"):
        raise ValueError(f"unknown validation mode: {mode!r}")
    if mode == "strict" and catalogue is None:
        raise ValueError("strict validation requires a catalogue")
    violations: list[Violation] = []
    nodes = graph.nodes
    for edge in graph.edges:
        src = nodes.get(edge.source)
        if src is None:
            violations.append(Violation(
                EDGE_FROM_NON_CONCEPT, edge,
                f"edge source '{edge.source}' is not a node in the graph"))
        elif isinstance(src, EntityNode):
            violations.append(Violation(
                ENTITY_OUT_EDGE, edge,
                f"entity '{edge.source}' has an outgoing edge; entities are leaves"))
        elif isinstance(src, OmittedNode):
            violations.append(Violation(
                OMITTED_OUT_EDGE, edge,
                f"omitted node '{edge.source}' has an outgoing edge"))
        if edge.target not in nodes:
            violations.append(Violation(
                DANGLING_TARGET, edge,
                f"edge target '{edge.target}' is not a node in the graph"))
    slots: dict[tuple[str, str, int | None], list[Edge]] = {}
    for edge in graph.edges:
        slots.setdefault((edge.source, edge.label.name, edge.label.index), []).append(edge)
    for (source, name, index), group in slots.items():
        if len(group) > 1:
            violations.append(Violation(
                DUPLICATE_ROLE_SLOT, group[1],
                f"role slot '{RoleLabel(name, index)}' of '{source}'"
                f" is filled {len(group)} times"))
    index_sets: dict[tuple[str, str], set[int]] = {}
    for edge in graph.edges:
        if edge.label.index is not None:
            index_sets.setdefault((edge.source, edge.label.name), set()).add(edge.label.index)
    for (source, name), indices in index_sets.items():
        # k distinct indices >= 1 are 1..k exactly when the largest is k.
        if len(indices) != max(indices):
            violations.append(Violation(
                BAD_INDEX_SET, source,
                f"indices for role '{name}' of '{source}' are {sorted(indices)},"
                f" expected 1..{len(indices)}"))
    if mode == "strict":
        assert catalogue is not None
        for node_id, node in nodes.items():
            if isinstance(node, ConceptNode) and node.name not in catalogue:
                violations.append(Violation(
                    UNKNOWN_CONCEPT, node_id,
                    f"concept '{node.name}' is not defined in the catalogue"))
        for edge in graph.edges:
            src = nodes.get(edge.source)
            if not isinstance(src, ConceptNode):
                continue
            definition = catalogue.get(src.name)
            if definition is None:
                continue
            declared = definition.role(edge.label.name)
            if declared is None:
                violations.append(Violation(
                    UNKNOWN_ROLE, edge,
                    f"'{edge.label.name}' is not a declared role of concept '{src.name}'"))
            elif declared.indexed != (edge.label.index is not None):
                expected = "indexed" if declared.indexed else "unindexed"
                violations.append(Violation(
                    INDEXING_MISMATCH, edge,
                    f"role '{edge.label.name}' of concept '{src.name}'"
                    f" is declared {expected}"))
    return violations
