"""The ``add_planned_edges`` that the one-pass builder in ``semgraph.model``
replaced, with the ``_slot_fault`` it called, kept as an oracle for
differential tests.

It builds an ``Edge`` for every planned edge, builds a relabelled group's
edges again, checks the endpoint rule on every edge, and checks every
source's batch with ``_slot_fault``, where the new one decides each group's
labels on the planned tuples, builds each edge once, and checks the batches
only of the sources that can break the slot rule.
"""

from __future__ import annotations

from typing import Iterable

from semgraph.model import (
    BAD_INDEX_SET,
    DUPLICATE_ROLE_SLOT,
    Edge,
    GraphError,
    RoleLabel,
    SemanticGraph,
    _endpoint_violations,
)


def _slot_fault(out: list[Edge]) -> str | None:
    """The slot rule on one source's out-edges: ``DUPLICATE_ROLE_SLOT`` if a
    role slot is filled twice, else ``BAD_INDEX_SET`` if an indexed role is
    not indexed 1..k, else None."""
    slots = {(edge.label.name, edge.label.index) for edge in out}
    if len(slots) != len(out):
        return DUPLICATE_ROLE_SLOT
    # Indices >= 1 of one role are 1..k exactly when each one above 1 has its
    # predecessor.
    if any((name, index - 1) not in slots for name, index in slots
           if index is not None and index > 1):
        return BAD_INDEX_SET
    return None


def add_planned_edges(graph: SemanticGraph,
                      planned: Iterable[tuple[str, RoleLabel | str, str]]) -> None:
    """Insert planned (source, label, target) edges, repairing slot collisions.

    A planned label is a ``RoleLabel`` or a role name, for the unindexed
    label; the edges of one call share one label per (name, index). Edges are
    grouped by (source, role name) in first-occurrence order and inserted
    group after group, in one batch that goes in whole or not at all. A group
    is kept as planned if ``_slot_fault`` passes it and it is one member or
    all-indexed; otherwise it is replaced by new edges indexed 1..k in plan
    order, so no edge changes once made. Frontends use
    this to honour the one-slot-per-role rule when source data repeats a role.

    Raises ``GraphError``, and inserts nothing, if an edge has a missing
    endpoint or a source that is not a concept, or if a source's new edges,
    with its existing ones of the same role names, break the slot rule. Each
    source's slots are checked once per call.
    """
    labels: dict[tuple[str, int | None], RoleLabel] = {}  # (name, index) -> its one label
    groups: dict[tuple[str, str], list[Edge]] = {}
    for source, label, target in planned:
        if isinstance(label, str):
            label = labels.get((label, None)) or RoleLabel(label)
        label = labels.setdefault((label.name, label.index), label)
        groups.setdefault((source, label.name), []).append(Edge(source, label, target))
    edges: list[Edge] = []
    new: dict[str, list[Edge]] = {}  # source -> its new edges
    for (source, name), group in groups.items():
        if not (len(group) == 1 or (all(e.label.index is not None for e in group)
                                    and _slot_fault(group) is None)):
            group = [Edge(source, labels.get((name, i))
                          or labels.setdefault((name, i), RoleLabel(name, i)), e.target)
                     for i, e in enumerate(group, start=1)]
        edges.extend(group)
        new.setdefault(source, []).extend(group)
    faults = _endpoint_violations(graph.nodes, edges)
    if faults:
        raise GraphError(faults[0].message, faults[0].code)
    out = graph._adjacency()
    for source, batch in new.items():
        names = {edge.label.name for edge in batch}
        code = _slot_fault([e for e in out.get(source, ()) if e.label.name in names] + batch)
        if code is not None:
            what = f"'{batch[0].label}'" if len(batch) == 1 else f"{len(batch)} edges"
            raise GraphError(f"adding {what} to '{source}' would break the slot rule"
                             " (each slot once, indices 1..k)", code)
    graph.edges.extend(edges)
