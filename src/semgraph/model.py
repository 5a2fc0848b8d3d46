"""Core semantic graph data model: typed nodes, role-labelled edges, concept
catalogues and the structural/catalogue validation rules."""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Iterator, NamedTuple, Union

_ID_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

# Violation codes (closed set).
ENTITY_OUT_EDGE = "ENTITY_OUT_EDGE"
OMITTED_OUT_EDGE = "OMITTED_OUT_EDGE"
EDGE_FROM_NON_CONCEPT = "EDGE_FROM_NON_CONCEPT"
DANGLING_TARGET = "DANGLING_TARGET"
DUPLICATE_ROLE_SLOT = "DUPLICATE_ROLE_SLOT"
BAD_INDEX_SET = "BAD_INDEX_SET"
UNKNOWN_CONCEPT = "UNKNOWN_CONCEPT"
UNKNOWN_ROLE = "UNKNOWN_ROLE"
INDEXING_MISMATCH = "INDEXING_MISMATCH"

VIOLATION_CODES = frozenset({
    ENTITY_OUT_EDGE,
    OMITTED_OUT_EDGE,
    EDGE_FROM_NON_CONCEPT,
    DANGLING_TARGET,
    DUPLICATE_ROLE_SLOT,
    BAD_INDEX_SET,
    UNKNOWN_CONCEPT,
    UNKNOWN_ROLE,
    INDEXING_MISMATCH,
})


class SourceError(Exception):
    """Malformed input to one of the readers.

    ``line`` and ``column`` are 1-based and ``None`` where the reader does not
    know them; the message appends whichever are known to ``reason``.
    """

    def __init__(self, reason: str, line: int | None = None, column: int | None = None):
        where = ("" if line is None else f" (line {line})" if column is None
                 else f" (line {line}, column {column})")
        super().__init__(reason + where)
        self.reason = reason
        self.line = line
        self.column = column


def line_col(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of character ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def line_col_after(text: str) -> tuple[int, int]:
    """The 1-based (line, column) just past the end of ``text``, where lines
    end at "\\n", "\\r\\n" or a lone "\\r", as expat and universal-newline
    reading count them."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    return line_col(text, len(text))


def _lines(text: str) -> Iterator[tuple[int, str]]:
    """Each line of ``text`` with the offset it starts at. Lines end at "\\n"
    only, as ``line_col`` counts them; a "\\r" ending a line is dropped."""
    offset = 0
    for line in text.split("\n"):
        yield offset, line.removesuffix("\r")
        offset += len(line) + 1


class GraphError(ValueError):
    """Raised when a graph or catalogue operation breaks a construction rule.

    ``code`` carries the matching violation code when one applies.
    """

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        self.code = code


class InvalidGraphError(GraphError):
    """Raised when an operation requires a valid graph but validation failed."""

    def __init__(self, violations: list[Violation]):
        summary = "; ".join(f"{v.code}: {v.message}" for v in violations)
        super().__init__(f"graph is not valid: {summary}")
        self.violations = violations


def _name_error(what: str, name: object) -> GraphError:
    """Why ``name`` may not be a ``what``: it is empty, or not exactly a str
    (the writers write it as it is, and a str subclass may format otherwise)."""
    if type(name) is str:
        return GraphError(f"{what} must be non-empty")
    return GraphError(f"{what} must be a str, not the {type(name).__name__} {name!r}")


def _check_id(node_id: str) -> None:
    # The node records are frozen, so an id checked here holds for good, and
    # the writers write ids as they are.
    if not _ID_RE.match(node_id):
        raise GraphError(f"invalid node id {node_id!r}")


@dataclass(frozen=True, slots=True)
class RoleLabel:
    """A named role slot, optionally indexed (1-based) for sibling multiplicity."""

    name: str
    index: int | None = None

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise _name_error("role name", self.name)
        if self.index is not None:
            # Not a bool or another int subclass: the writers write the index
            # as it is, and the readers read back only digits.
            if type(self.index) is not int:
                raise GraphError(f"role index must be an int, got {self.index!r}")
            if self.index < 1:
                raise GraphError("role index must be >= 1")

    def __str__(self) -> str:
        return self.name if self.index is None else f"{self.name}[{self.index}]"


# The payload checks of the node records, run by their constructors and by
# the graph's add_* methods, which make the records without the id check.
# A check that passes makes no call: type() is a type, not a function.


def _concept_payload(name: str) -> None:
    if type(name) is not str or not name:
        raise _name_error("concept name", name)


def _entity_payload(value: str, classes: Iterable[str]) -> tuple[str, ...]:
    """Check an entity's value and classes; return the classes as a tuple,
    ``classes`` itself if it is one."""
    if type(classes) is not tuple:
        if isinstance(classes, (str, bytes, bytearray)):  # one class per character or byte
            raise GraphError("entity classes must be class names,"
                             f" not the {type(classes).__name__} {classes!r}")
        classes = tuple(classes)
    if type(value) is not str or not value:
        raise _name_error("entity value", value)
    for cls in classes:
        if type(cls) is not str or not cls:
            raise _name_error("entity class name", cls)
    return classes


@dataclass(frozen=True, slots=True)
class ConceptNode:
    """Predicate node; the only node kind that may own outgoing role edges."""

    id: str
    name: str

    def __post_init__(self):
        _check_id(self.id)
        _concept_payload(self.name)


@dataclass(frozen=True, slots=True)
class EntityNode:
    """Leaf node for an instance: a value plus the classes it belongs to."""

    id: str
    value: str
    classes: tuple[str, ...] = ()

    def __post_init__(self):
        _check_id(self.id)
        classes = _entity_payload(self.value, self.classes)
        if classes is not self.classes:
            object.__setattr__(self, "classes", classes)


@dataclass(frozen=True, slots=True)
class OmittedNode:
    """Leaf placeholder for a role that is implied but unexpressed in the source."""

    id: str

    def __post_init__(self):
        _check_id(self.id)


Node = Union[ConceptNode, EntityNode, OmittedNode]

# A node record made field by field, as its dataclass __init__ does, but
# without its __post_init__: for a graph's add_* methods, whose ids come from
# the counter and match _ID_RE by construction.
_new = object.__new__
_set = object.__setattr__


class Edge(NamedTuple):
    """A role edge, immutable: it keeps the label and endpoints it was checked with."""

    source: str
    label: RoleLabel
    target: str

    def __str__(self) -> str:
        return f"{self.source} -{self.label}-> {self.target}"


@dataclass
class Violation:
    code: str
    subject: str | Edge
    message: str


def _slot_fault(out: list[Edge] | list[tuple[str, RoleLabel, str]]) -> str | None:
    """The slot rule on one source's out-edges, as edges or as planned
    (source, label, target) tuples: ``DUPLICATE_ROLE_SLOT`` if a role slot is
    filled twice, else ``BAD_INDEX_SET`` if an indexed role is not indexed
    1..k, else None."""
    # Item 1 is the label of both; reading it so is as fast as ``edge.label``.
    slots = {(edge[1].name, edge[1].index) for edge in out}
    if len(slots) != len(out):
        return DUPLICATE_ROLE_SLOT
    # Indices >= 1 of one role are 1..k exactly when each one above 1 has its
    # predecessor.
    if any((name, index - 1) not in slots for name, index in slots
           if index is not None and index > 1):
        return BAD_INDEX_SET
    return None


def _endpoint_violations(nodes: dict[str, Node], edges: Iterable[Edge]) -> list[Violation]:
    """The endpoint rule on ``edges``, in their order: a source must be a
    concept in ``nodes`` and a target must be in ``nodes``."""
    violations: list[Violation] = []
    for edge in edges:
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
    return violations


class SemanticGraph:
    """Directed labelled multigraph of concept, entity and omitted nodes.

    Nodes are keyed by string ids; edges keep insertion order. The ``add_*``
    methods guard the structural rules at construction time, so a graph built
    only through them always passes lax validation. Graphs are meant to be
    built single-threaded and treated as immutable once construction is done;
    no operation in this module changes the nodes or edges of a finished
    graph.

    Beside ``edges`` the graph keeps an adjacency: per source node, its
    out-edges in insertion order. Edge insertion checks new edges against
    their sources' edges alone, and ``out_edges`` and the serializers read
    it. It is filled lazily: each read first indexes the edges appended to
    ``edges`` since the last one, so an edge appended to ``edges`` directly
    (as ``merge`` and ``from_xml`` do) is seen too. Edges may only
    be appended; removing or replacing edges in ``edges`` is not supported.
    """

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []
        self._id_counter = 0
        self._out: dict[str, list[Edge]] = {}
        self._indexed = 0  # edges[:_indexed] are in _out

    def _adjacency(self) -> dict[str, list[Edge]]:
        """Source id -> its out-edges, after indexing the edges not yet in it."""
        for edge in self.edges[self._indexed:]:
            self._out.setdefault(edge.source, []).append(edge)
        self._indexed = len(self.edges)
        return self._out

    # Each add_* checks its payload, then takes the id n{counter + 1}, or the
    # next one not yet in ``nodes`` from _fresh_id, and advances the counter
    # once its node is in ``nodes``: a node whose checks fail takes no id.

    def _fresh_id(self) -> str:
        """The next counter id not yet in ``nodes``, skipping the taken ones."""
        while True:
            node_id = f"n{self._id_counter + 1}"
            if node_id not in self.nodes:
                return node_id
            self._id_counter += 1

    def add_concept(self, name: str) -> str:
        """Add a concept node and return its id. Duplicate names are allowed."""
        _concept_payload(name)
        node_id = f"n{self._id_counter + 1}"
        if node_id in self.nodes:
            node_id = self._fresh_id()
        node = _new(ConceptNode)
        _set(node, "id", node_id)
        _set(node, "name", name)
        self.nodes[node_id] = node
        self._id_counter += 1
        return node_id

    def add_entity(self, value: str, classes: Iterable[str] = ()) -> str:
        """Add an entity leaf with the given value and class names (kept in order)."""
        classes = _entity_payload(value, classes)
        node_id = f"n{self._id_counter + 1}"
        if node_id in self.nodes:
            node_id = self._fresh_id()
        node = _new(EntityNode)
        _set(node, "id", node_id)
        _set(node, "value", value)
        _set(node, "classes", classes)
        self.nodes[node_id] = node
        self._id_counter += 1
        return node_id

    def add_omitted(self) -> str:
        """Add an omitted-node leaf and return its id."""
        node_id = f"n{self._id_counter + 1}"
        if node_id in self.nodes:
            node_id = self._fresh_id()
        node = _new(OmittedNode)
        _set(node, "id", node_id)
        self.nodes[node_id] = node
        self._id_counter += 1
        return node_id

    def add_edge(self, source: str, label: RoleLabel | str, target: str) -> Edge:
        """Add a role edge from a concept to another node: the one-edge plan
        of ``add_planned_edges``, which is never relabelled.

        Rejects edges whose source is missing or not a concept, whose target is
        missing, whose (source, label) slot is already filled, or whose index
        would leave the role's index set non-contiguous.
        """
        add_planned_edges(self, [(source, label, target)])
        return self.edges[-1]

    def out_edges(self, node_id: str) -> list[Edge]:
        """The edges leaving ``node_id``, in insertion order."""
        return list(self._adjacency().get(node_id, ()))


# An Edge from a (source, label, target) tuple with no Python frame: what
# Edge._make does, without its length check.
_edge = partial(tuple.__new__, Edge)


def add_planned_edges(graph: SemanticGraph,
                      planned: Iterable[tuple[str, RoleLabel | str, str]]) -> None:
    """Insert planned (source, label, target) edges, repairing slot collisions.

    A planned label is a ``RoleLabel`` or a role name, for the unindexed
    label; the edges of one call share one label per (name, index). Edges are
    grouped by (source, role name) in first-occurrence order and inserted
    group after group, in one batch that goes in whole or not at all. A group
    is kept as planned if it is one member, or all-indexed and passed by
    ``_slot_fault``; otherwise its edges are made indexed 1..k in plan order.
    Each edge is made once, with its final label. Frontends use this to
    honour the one-slot-per-role rule when source data repeats a role.

    Raises ``GraphError``, and inserts nothing, if an edge has a missing
    endpoint or a source that is not a concept, or if a source's new edges,
    with its existing ones of the same role names, break the slot rule. Only
    the sources whose new edges can break it are checked.
    """
    labels: dict[tuple[str, int | None], RoleLabel] = {}  # (name, index) -> its one label
    groups: dict[tuple[str, str], list[tuple[str, RoleLabel, str]]] = {}
    nodes = graph.nodes
    endpoints_ok = True
    for source, label, target in planned:
        if isinstance(label, str):
            label = labels.get((label, None)) or labels.setdefault((label, None), RoleLabel(label))
        else:
            label = labels.setdefault((label.name, label.index), label)
        groups.setdefault((source, label.name), []).append((source, label, target))
        if target not in nodes:
            endpoints_ok = False
    out = graph._adjacency()
    edges: list[Edge] = []
    # The sources whose new edges can break the slot rule. A source with no
    # out-edges yet can break it only through a lone edge indexed above 1: a
    # longer group is passed by _slot_fault or indexed 1..k, and distinct
    # role names share no slot.
    to_check: set[str] = set()
    for (source, name), group in groups.items():
        if not isinstance(nodes.get(source), ConceptNode):
            endpoints_ok = False
        if len(group) == 1:
            index = group[0][1].index
            if source in out or (index is not None and index > 1):
                to_check.add(source)
        else:
            if source in out:
                to_check.add(source)
            if (None in {label.index for _, label, _ in group}
                    or _slot_fault(group) is not None):
                group = [(source, labels.get((name, i))
                          or labels.setdefault((name, i), RoleLabel(name, i)), target)
                         for i, (_, _, target) in enumerate(group, start=1)]
        edges.extend(map(_edge, group))
    # The tests above may only over-report; the first fault is reported as
    # validate reports it.
    if not endpoints_ok:
        faults = _endpoint_violations(nodes, edges)
        if faults:
            raise GraphError(faults[0].message, faults[0].code)
    if to_check:
        batches: dict[str, list[Edge]] = {}  # source -> its new edges, in plan order
        for edge in edges:
            if edge.source in to_check:
                batches.setdefault(edge.source, []).append(edge)
        for source, batch in batches.items():
            names = {edge.label.name for edge in batch}
            code = _slot_fault([e for e in out.get(source, ()) if e.label.name in names] + batch)
            if code is not None:
                what = f"'{batch[0].label}'" if len(batch) == 1 else f"{len(batch)} edges"
                raise GraphError(f"adding {what} to '{source}' would break the slot rule"
                                 " (each slot once, indices 1..k)", code)
    graph.edges.extend(edges)


def _copy_node_into(out: SemanticGraph, node: Node) -> str:
    if isinstance(node, ConceptNode):
        return out.add_concept(node.name)
    if isinstance(node, EntityNode):
        return out.add_entity(node.value, node.classes)
    return out.add_omitted()


def _copy_into(out: SemanticGraph, graph: SemanticGraph, ids: dict[str, str]) -> dict[str, str]:
    """Copy ``graph``'s nodes, then its edges, into ``out`` under fresh ids, in
    insertion order. A node already in ``ids`` is fused: it maps to the ``out``
    id given there and is not copied. Returns ``ids``, extended to map every
    node of ``graph`` to its id in ``out``."""
    for node_id, node in graph.nodes.items():
        if node_id not in ids:
            ids[node_id] = _copy_node_into(out, node)
    try:
        out.edges.extend(_edge((ids[s], label, ids[t])) for s, label, t in graph.edges)
    except KeyError:  # an endpoint that is not in graph.nodes
        fault = next(v for v in _endpoint_violations(graph.nodes, graph.edges)
                     if v.code in (EDGE_FROM_NON_CONCEPT, DANGLING_TARGET))
        raise GraphError(fault.message, fault.code) from None
    return ids


def _check_fusable(a: Node, b: Node) -> None:
    if isinstance(a, ConceptNode) and isinstance(b, ConceptNode):
        if a.name != b.name:
            raise GraphError(f"cannot fuse concept '{a.name}' with concept '{b.name}'")
    elif isinstance(a, EntityNode) and isinstance(b, EntityNode):
        if a.value != b.value or a.classes != b.classes:
            raise GraphError(
                f"cannot fuse entity '{a.value}' with entity '{b.value}':"
                " values and classes must match")
    elif not (isinstance(a, OmittedNode) and isinstance(b, OmittedNode)):
        raise GraphError("cannot fuse nodes of different kinds")


def merge(g1: SemanticGraph, g2: SemanticGraph,
          correspondence: Iterable[tuple[str, str]] = ()) -> SemanticGraph:
    """Disjoint union of two graphs with selected node pairs fused.

    ``correspondence`` holds (id in g1, id in g2) pairs; each pair must join
    nodes of the same kind carrying equal payloads (concept name, or entity
    value and classes). Fused nodes may not both fill the same role slot, so
    that the result of merging lax-valid graphs is lax-valid. Neither input is
    mutated. The result gets fresh node ids assigned in a fixed order: g1's
    nodes first, then g2's unfused nodes, both in insertion order; edges keep
    g1-then-g2 order. An operand's edge whose source or target is not in its
    ``nodes`` raises ``GraphError`` with ``validate``'s code and message for
    it; any other invalid input is copied as it is.
    """
    fused_of_g2: dict[str, str] = {}
    seen_g1: set[str] = set()
    for id1, id2 in correspondence:
        if id1 not in g1.nodes:
            raise GraphError(f"correspondence id '{id1}' is not in the first graph")
        if id2 not in g2.nodes:
            raise GraphError(f"correspondence id '{id2}' is not in the second graph")
        if id1 in seen_g1 or id2 in fused_of_g2:
            raise GraphError("a node may appear only once in the correspondence")
        _check_fusable(g1.nodes[id1], g2.nodes[id2])
        seen_g1.add(id1)
        fused_of_g2[id2] = id1
    if fused_of_g2:
        filled = {(e.source, e.label) for e in g1.edges if e.source in seen_g1}
        for e in g2.edges:
            if (fused_of_g2.get(e.source), e.label) in filled:
                raise GraphError(f"role slot '{e.label}' of '{fused_of_g2[e.source]}'"
                                 " is filled in both graphs", DUPLICATE_ROLE_SLOT)
    out = SemanticGraph()
    map1 = _copy_into(out, g1, {})
    _copy_into(out, g2, {id2: map1[id1] for id2, id1 in fused_of_g2.items()})
    return out


@dataclass(frozen=True)
class RoleSpec:
    """A role declared by a concept definition; indexed roles take 1..k slots."""

    name: str
    indexed: bool = False

    def __post_init__(self):
        if type(self.name) is not str or not self.name:
            raise _name_error("role name", self.name)


@dataclass(frozen=True)
class ConceptDefinition:
    """Declares a concept name together with the roles it may fill."""

    name: str
    roles: tuple[RoleSpec, ...] = ()
    description: str | None = None

    def __post_init__(self):
        if not isinstance(self.roles, tuple):
            object.__setattr__(self, "roles", tuple(self.roles))
        if type(self.name) is not str or not self.name:
            raise _name_error("concept definition name", self.name)
        seen = set()
        for role in self.roles:
            if role.name in seen:
                raise GraphError(
                    f"role '{role.name}' declared twice in concept '{self.name}'")
            seen.add(role.name)

    def role(self, name: str) -> RoleSpec | None:
        for role in self.roles:
            if role.name == name:
                return role
        return None


class ConceptCatalogue:
    """Registry of concept definitions keyed by unique concept name.

    Built single-threaded through ``define``; treated as immutable once
    construction is done, after which it may be read from any thread.
    """

    def __init__(self, definitions: Iterable[ConceptDefinition] = ()):
        self.entries: dict[str, ConceptDefinition] = {}
        for definition in definitions:
            self.define(definition)

    def define(self, definition: ConceptDefinition) -> None:
        """Add a definition; redefining an existing name is rejected."""
        if definition.name in self.entries:
            raise GraphError(f"concept '{definition.name}' is already defined")
        self.entries[definition.name] = definition

    def get(self, name: str) -> ConceptDefinition | None:
        return self.entries.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def names(self) -> list[str]:
        return sorted(self.entries)


def validate(graph: SemanticGraph, catalogue: ConceptCatalogue | None = None,
             mode: str = "lax") -> list[Violation]:
    """Check the graph and return all violations found (empty list = valid).

    Both modes enforce the structural rules: edge endpoints must exist, only
    concepts may own outgoing edges, role slots are unique, and index sets are
    contiguous from 1. Strict mode needs a catalogue and additionally checks
    that every concept name is defined, every edge label is a declared role of
    its source concept, and indexed edges appear exactly on indexed roles.
    Entity class names are not checked against the catalogue. A
    ``graph.nodes`` key that is not its node's id is a construction fault,
    not a violation: it raises ``GraphError``.
    """
    if mode not in ("lax", "strict"):
        raise ValueError(f"unknown validation mode: {mode!r}")
    if mode == "strict" and catalogue is None:
        raise ValueError("strict validation requires a catalogue")
    nodes = graph.nodes
    for key, node in nodes.items():  # the writers write keys as they are
        if key != node.id:
            raise GraphError(f"node key {key!r} is not the id of its node {node.id!r}")
    adjacency = graph._adjacency()
    violations = _endpoint_violations(nodes, graph.edges)
    # Each source's slots are checked on its out-edges alone. Only the edges of
    # the sources at fault are keyed below, in ``graph.edges`` order, so that
    # the violations come in that order.
    faulty = {source for source, out in adjacency.items() if _slot_fault(out)}
    faulty_edges = [edge for edge in graph.edges if edge.source in faulty] if faulty else []
    slots: dict[tuple[str, str, int | None], list[Edge]] = {}
    for edge in faulty_edges:
        slots.setdefault((edge.source, edge.label.name, edge.label.index), []).append(edge)
    for (source, name, index), group in slots.items():
        if len(group) > 1:
            violations.append(Violation(
                DUPLICATE_ROLE_SLOT, group[1],
                f"role slot '{RoleLabel(name, index)}' of '{source}'"
                f" is filled {len(group)} times"))
    index_sets: dict[tuple[str, str], set[int]] = {}
    for edge in faulty_edges:
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
