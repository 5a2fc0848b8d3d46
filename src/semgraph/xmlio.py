"""Canonical XML exchange format for semantic graphs and concept catalogues.

Writing is byte-deterministic: nodes are sorted by id (byte order), a
concept's role elements keep edge insertion order, and attribute layout is
fixed. Reading accepts any well-formed layout of the same element grammar.
It is one pass of expat: the nodes, role edges and catalogue entries are
built in its start-tag handler, and no element tree is kept.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable
from xml.parsers import expat

from .model import (
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    InvalidGraphError,
    OmittedNode,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    SourceError,
    _ID_RE,
    line_col,
    line_col_after,
    validate,
)

_INDEX_RE = re.compile(r"[1-9][0-9]*\Z")
# What may precede a DOCTYPE: the XML declaration, comments, PIs, white space.
_PROLOG_RE = re.compile(r"(?:<\?.*?\?>|<!--.*?-->|\s)*", re.DOTALL)
_DOCTYPE = "DOCTYPE declarations are not allowed"
_FEED_CHARS = 1 << 16


class XmlError(SourceError):
    """Base error for reading the XML exchange format."""


class XmlSyntaxError(XmlError):
    """Malformed markup; carries the line and column reported by the parser."""


class XmlSchemaError(XmlError):
    """Well-formed markup that breaks the element grammar; located at the markup at fault."""


def _escape(value: str) -> str:
    # Newline/tab/CR must be character references or attribute-value
    # normalization would fold them into spaces on re-parse.
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;").replace("'", "&apos;")
    return value.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")


def to_xml(graph: SemanticGraph) -> str:
    """Serialize a graph that passes lax validation to its canonical XML form."""
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    if not graph.nodes:
        return '<semanticgraph version="1"/>'
    parts = ['<semanticgraph version="1">']
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if isinstance(node, ConceptNode):
            edges = graph.out_edges(node_id)
            head = f'<concept id="{_escape(node_id)}" name="{_escape(node.name)}"'
            if not edges:
                parts.append(head + "/>")
                continue
            parts.append(head + ">")
            for edge in edges:
                index = "" if edge.label.index is None else f' index="{edge.label.index}"'
                parts.append(f'<role name="{_escape(edge.label.name)}"{index}'
                             f' target="{_escape(edge.target)}"/>')
            parts.append("</concept>")
        elif isinstance(node, EntityNode):
            head = f'<entity id="{_escape(node_id)}" value="{_escape(node.value)}"'
            if not node.classes:
                parts.append(head + "/>")
                continue
            parts.append(head + ">")
            for cls in node.classes:
                parts.append(f'<class name="{_escape(cls)}"/>')
            parts.append("</entity>")
        else:
            parts.append(f'<omitted id="{_escape(node_id)}"/>')
    parts.append("</semanticgraph>")
    return "".join(parts)


def _element(name: str, required: str, optional: str = "", children: str = "",
             inside: str = "") -> tuple[str, tuple]:
    # -> name, (required attributes, allowed attributes, allowed children, how
    # the "unexpected element ... inside" message names the element)
    return name, (frozenset(required.split()), frozenset(f"{required} {optional}".split()),
                  frozenset(children.split()), inside or f"'{name}'")


# ``role`` is also allowed under ``entity`` and ``omitted``, so that graphs
# that break the structural rules can be read and then diagnosed.
_GRAPH = dict([
    _element("semanticgraph", "version", children="concept entity omitted"),
    _element("concept", "id name", children="role"),
    _element("entity", "id value", children="class role"),
    _element("omitted", "id", children="role"),
    _element("role", "name target", "index"),
    _element("class", "name"),
])
_CATALOGUE = dict([
    _element("catalogue", "version", children="concept"),
    _element("concept", "name", children="role", inside="catalogue concept"),
    _element("role", "name", "indexed"),
])


def _tag(name: str) -> str:
    """A namespaced name spelt ``{uri}local``, as ElementTree does; expat gives ``uri}local``."""
    return "{" + name if "}" in name else name


def _parse(parser, text: str) -> None:
    # Fed in slices: expat reads UTF-8, and a str that is not ASCII keeps the
    # UTF-8 copy made of it for as long as it lives.
    at = 0
    try:
        for at in range(0, len(text), _FEED_CHARS):
            parser.Parse(text[at:at + _FEED_CHARS], False)
        parser.Parse("", True)
    except expat.ExpatError as exc:
        raise XmlSyntaxError(f"malformed XML: {expat.ErrorString(exc.code)}",
                             exc.lineno, exc.offset + 1) from None
    except UnicodeEncodeError as exc:  # UTF-8 has no lone surrogates
        bad = at + exc.start
        raise XmlSyntaxError(f"malformed XML: lone surrogate {text[bad]!r}",
                             *line_col_after(text[:bad])) from None


def _read(text: str, grammar: dict[str, tuple], root: str,
          start: Callable[[str, dict, tuple[int, int]], None]) -> None:
    """Parse ``text`` in one expat pass, checking the element grammar and the
    root's version, and call ``start(name, attributes, (line, column))`` at
    each start tag below the root.

    A DOCTYPE stops the parse where it starts. Any other schema fault is
    reported only if the whole text is well-formed, so malformed markup
    always raises ``XmlSyntaxError``.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    open_elements: list[tuple] = []  # name, allowed children and start tag of each

    def on_start(name, attributes):
        where = (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)
        if open_elements:
            parent, children, _ = open_elements[-1]
            if name not in children:
                raise XmlSchemaError(
                    f"unexpected element '{_tag(name)}' inside {grammar[parent][3]}"
                    if children else f"element '{parent}' may not have children", *where)
        elif name != root:
            raise XmlSchemaError(
                f"unexpected root element '{_tag(name)}', expected '{root}'", *where)
        required, allowed, children, _ = grammar[name]
        present = attributes.keys()
        if not (present >= required and present <= allowed):
            unknown = min(map(_tag, present - allowed), default=None)
            raise XmlSchemaError(
                f"unknown attribute '{unknown}' on element '{name}'" if unknown else
                f"missing attribute '{min(required - present)}' on element '{name}'", *where)
        open_elements.append((name, children, where))
        if len(open_elements) > 1:
            start(name, attributes, where)
        elif attributes["version"] != "1":
            raise XmlSchemaError(
                f"unsupported {root} version '{attributes['version']}'", *where)

    def on_text(data):
        if data.strip():
            name, _, where = open_elements[-1]
            raise XmlSchemaError(f"unexpected text content in element '{name}'", *where)

    def on_doctype(*_):
        # Its internal subset could declare entities that expand to any text.
        raise XmlSchemaError(_DOCTYPE, *line_col(text, _PROLOG_RE.match(text).end()))

    parser.StartElementHandler = on_start
    parser.EndElementHandler = lambda name: open_elements.pop()
    parser.CharacterDataHandler = on_text
    parser.StartDoctypeDeclHandler = on_doctype
    try:
        _parse(parser, text)
    except XmlSchemaError as exc:
        if exc.reason != _DOCTYPE:
            _parse(expat.ParserCreate(namespace_separator="}"), text)
        raise


def _role_label(name: str, index_text: str | None, source: str,
                where: tuple[int, int]) -> RoleLabel:
    if not name:
        raise XmlSchemaError(f"empty role name on a role of '{source}'", *where)
    if index_text is None:
        return RoleLabel(name)
    if not _INDEX_RE.match(index_text):
        raise XmlSchemaError(
            f"role index must be a positive integer, got {index_text!r}", *where)
    try:
        return RoleLabel(name, int(index_text))
    except ValueError:  # more digits than int() converts
        raise XmlSchemaError(
            f"role index has too many digits ({len(index_text)})", *where) from None


def from_xml(text: str) -> SemanticGraph:
    """Parse a semantic graph document, preserving the serialized node ids.

    The element grammar is checked strictly with one deliberate exception:
    ``role`` children are also accepted under ``entity`` and ``omitted``
    elements, so that structurally invalid graphs can be loaded and then
    diagnosed by validation (they can never be produced by ``to_xml``).
    Role targets must resolve to an id in the document.
    """
    graph = SemanticGraph()
    nodes, edges = graph.nodes, graph.edges
    labels: dict[tuple[str, str | None], RoleLabel] = {}  # one per (name, index text)
    source = ""  # id of the node element the parser is in

    def start(name, attributes, where):
        nonlocal source
        if name == "role":
            key = (attributes["name"], attributes.get("index"))
            label = labels.get(key)
            if label is None:
                label = labels[key] = _role_label(*key, source, where)
            edges.append(Edge(source, label, attributes["target"]))
        elif name == "class":
            if not attributes["name"]:
                raise XmlSchemaError(f"empty class name on entity '{source}'", *where)
            nodes[source].classes.append(attributes["name"])
        else:
            node_id = attributes["id"]
            if not _ID_RE.match(node_id):
                raise XmlSchemaError(f"invalid node id {node_id!r} on element '{name}'", *where)
            if node_id in nodes:
                raise XmlSchemaError(f"duplicate node id '{node_id}'", *where)
            if name == "concept":
                if not attributes["name"]:
                    raise XmlSchemaError(f"empty concept name on node '{node_id}'", *where)
                nodes[node_id] = ConceptNode(node_id, attributes["name"])
            elif name == "entity":
                if not attributes["value"]:
                    raise XmlSchemaError(f"empty entity value on node '{node_id}'", *where)
                nodes[node_id] = EntityNode(node_id, attributes["value"])
            else:
                nodes[node_id] = OmittedNode(node_id)
            source = node_id

    _read(text, _GRAPH, "semanticgraph", start)
    for k, edge in enumerate(edges):
        if edge.target not in nodes:
            raise XmlSchemaError(f"role target references unknown id '{edge.target}'",
                                 *_role_start(text, k))
    return graph


def _role_start(text: str, k: int) -> tuple[int, int]:
    """The (line, column) of the ``k``-th (0-based) ``role`` start tag of a
    graph document that ``_read`` has accepted, which is where ``edges[k]`` of
    ``from_xml`` starts: edges are appended in document order. It is found by
    a second parse, so that reading keeps no location per role."""
    parser = expat.ParserCreate(namespace_separator="}")
    roles = itertools.count()
    where = None

    def on_start(name, _):
        nonlocal where
        if name == "role" and next(roles) == k:
            where = (parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    parser.StartElementHandler = on_start
    _parse(parser, text)
    return where


def catalogue_to_xml(catalogue: ConceptCatalogue) -> str:
    """Serialize a catalogue; entries are sorted by concept name.

    Definition descriptions are not part of the exchange format and are
    dropped on write.
    """
    if not catalogue.entries:
        return '<catalogue version="1"/>'
    parts = ['<catalogue version="1">']
    for name in sorted(catalogue.entries):
        definition = catalogue.entries[name]
        head = f'<concept name="{_escape(name)}"'
        if not definition.roles:
            parts.append(head + "/>")
            continue
        parts.append(head + ">")
        for role in definition.roles:
            indexed = ' indexed="true"' if role.indexed else ""
            parts.append(f'<role name="{_escape(role.name)}"{indexed}/>')
        parts.append("</concept>")
    parts.append("</catalogue>")
    return "".join(parts)


def catalogue_from_xml(text: str) -> ConceptCatalogue:
    """Parse a concept catalogue document."""
    catalogue = ConceptCatalogue()
    definition = None  # of the concept element the parser is in
    role_names: set[str] = set()  # of that concept

    def start(name, attributes, where):
        nonlocal definition
        if name == "concept":
            concept = attributes["name"]
            if not concept:
                raise XmlSchemaError("empty concept name in catalogue", *where)
            if concept in catalogue:
                raise XmlSchemaError(f"duplicate concept '{concept}' in catalogue", *where)
            definition = ConceptDefinition(concept)
            catalogue.define(definition)
            role_names.clear()
            return
        role = attributes["name"]
        if not role:
            raise XmlSchemaError(f"empty role name in concept '{definition.name}'", *where)
        if role in role_names:
            raise XmlSchemaError(
                f"role '{role}' declared twice in concept '{definition.name}'", *where)
        role_names.add(role)
        indexed = attributes.get("indexed", "false")
        if indexed not in ("true", "false"):
            raise XmlSchemaError(f"indexed must be 'true' or 'false', got {indexed!r}", *where)
        definition.roles.append(RoleSpec(role, indexed == "true"))

    _read(text, _CATALOGUE, "catalogue", start)
    return catalogue
