"""Canonical XML exchange format for semantic graphs and concept catalogues.

Writing is byte-deterministic: nodes are sorted by id (byte order), a
concept's role elements keep edge insertion order, and attribute layout is
fixed. Reading accepts any well-formed layout of the same element grammar.
It is one pass of expat: the nodes, role edges and catalogue entries are
built in its tag handlers, each once, and no element tree is kept. Nor is any
location: an error takes its (line, column) from the parser as it is raised,
or from a second parse if the fault is stray text or an unresolved target.
"""

from __future__ import annotations

import itertools
import re
from typing import Callable, Iterator
from xml.parsers import expat

from .model import (
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    GraphError,
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


# The characters that XML 1.0 cannot carry, not even as a reference.
_UNCARRIED = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"
_UNCARRIED_RE = re.compile(f"[{_UNCARRIED}]")
_SPECIAL_RE = re.compile(f"[&<>\"'\n\t\r{_UNCARRIED}]")


def _escape(value: str) -> str:
    if _SPECIAL_RE.search(value) is None:
        return value
    bad = _UNCARRIED_RE.search(value)
    if bad is not None:
        raise GraphError(f"XML cannot carry the character U+{ord(bad.group()):04X}"
                         f" in {value!r}")
    # Newline/tab/CR must be character references or attribute-value
    # normalization would fold them into spaces on re-parse.
    value = value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;").replace("'", "&apos;")
    return value.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")


def to_xml(graph: SemanticGraph) -> str:
    """Serialize a graph that passes lax validation to its canonical XML form.

    Raises ``GraphError`` for a name, value or class name holding a character
    that XML cannot carry (see ``_UNCARRIED``)."""
    return "".join(_xml_parts(graph))


def _xml_parts(graph: SemanticGraph) -> Iterator[str]:
    """``to_xml``'s text in parts; the graph is validated before the first.
    Ids and role targets are written as they are: validation leaves only
    node keys that are their frozen nodes' checked ids."""
    violations = validate(graph)
    if violations:
        raise InvalidGraphError(violations)
    if not graph.nodes:
        yield '<semanticgraph version="1"/>'
        return
    yield '<semanticgraph version="1">'
    out = graph._adjacency()
    for node_id in sorted(graph.nodes):
        node = graph.nodes[node_id]
        if isinstance(node, ConceptNode):
            edges = out.get(node_id)
            head = f'<concept id="{node_id}" name="{_escape(node.name)}"'
            if not edges:
                yield head + "/>"
                continue
            yield head + ">"
            for edge in edges:
                index = "" if edge.label.index is None else f' index="{edge.label.index}"'
                yield (f'<role name="{_escape(edge.label.name)}"{index}'
                       f' target="{edge.target}"/>')
            yield "</concept>"
        elif isinstance(node, EntityNode):
            head = f'<entity id="{node_id}" value="{_escape(node.value)}"'
            if not node.classes:
                yield head + "/>"
                continue
            yield head + ">"
            for cls in node.classes:
                yield f'<class name="{_escape(cls)}"/>'
            yield "</entity>"
        else:
            yield f'<omitted id="{node_id}"/>'
    yield "</semanticgraph>"


def _element(name: str, required: str, optional: str = "", children: str = "",
             inside: str = "") -> tuple[str, tuple]:
    # -> name, (allowed children, number of required attributes, the optional
    # attribute or None, required attributes, how the "unexpected element ...
    # inside" message names the element)
    names = tuple(required.split())
    return name, (frozenset(children.split()), len(names), optional or None, names,
                  inside or f"'{name}'")


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


def _attribute_fault(name: str, attributes: dict, entry: tuple) -> str:
    """Why ``attributes`` do not fit element ``name``: the first unknown
    attribute, by its ElementTree name, or else the first missing one."""
    _, _, optional, required, _ = entry
    present = attributes.keys()
    unknown = min(map(_tag, present - {*required, optional}), default=None)
    if unknown:
        return f"unknown attribute '{unknown}' on element '{name}'"
    return f"missing attribute '{min(set(required) - present)}' on element '{name}'"


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
          start: Callable[[str, dict], None], element: str, end: Callable[[], None]) -> None:
    """Parse ``text`` in one expat pass, checking the element grammar and the
    root's version, and call ``start(name, attributes)`` at each start tag
    below the root and ``end()`` at each end tag of ``element``.

    ``start`` reads every required attribute of the element before any check
    of its own: an element whose attribute count is right but whose names are
    not fails there with a ``KeyError``. It raises ``XmlSchemaError`` with no
    location; the reader adds that of the start tag.

    A DOCTYPE stops the parse where it starts. Any other schema fault is
    reported only if the whole text is well-formed, so malformed markup
    always raises ``XmlSyntaxError``.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    open_elements: list[str] = []

    def fault(reason):
        return XmlSchemaError(reason, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)

    def on_root(name, attributes):
        if name != root:
            raise fault(f"unexpected root element '{_tag(name)}', expected '{root}'")
        if attributes.keys() != {"version"}:
            raise fault(_attribute_fault(name, attributes, grammar[name]))
        if attributes["version"] != "1":
            raise fault(f"unsupported {root} version '{attributes['version']}'")
        open_elements.append(name)
        parser.StartElementHandler = on_start

    def on_start(name, attributes):
        parent = open_elements[-1]
        children = grammar[parent][0]
        if name not in children:
            raise fault(f"unexpected element '{_tag(name)}' inside {grammar[parent][4]}"
                        if children else f"element '{parent}' may not have children")
        _, count, optional, _, _ = entry = grammar[name]
        if len(attributes) != count + (optional in attributes):
            raise fault(_attribute_fault(name, attributes, entry))
        open_elements.append(name)
        try:
            start(name, attributes)
        except KeyError:
            raise fault(_attribute_fault(name, attributes, entry)) from None
        except XmlSchemaError as exc:
            raise fault(exc.reason) from None

    def on_end(name):
        if open_elements.pop() == element:
            end()

    def on_text(data):
        if data.strip():
            raise XmlSchemaError(f"unexpected text content in element '{open_elements[-1]}'")

    def on_doctype(*_):
        # Its internal subset could declare entities that expand to any text.
        raise XmlSchemaError(_DOCTYPE, *line_col(text, _PROLOG_RE.match(text).end()))

    parser.StartElementHandler = on_root
    parser.EndElementHandler = on_end
    parser.CharacterDataHandler = on_text
    parser.StartDoctypeDeclHandler = on_doctype
    try:
        _parse(parser, text)
    except XmlSchemaError as exc:
        if exc.reason == _DOCTYPE:
            raise
        if exc.line is None:  # stray text; _start_tag also raises XmlSyntaxError
            raise XmlSchemaError(exc.reason, *_start_tag(text)) from None
        _parse(expat.ParserCreate(namespace_separator="}"), text)
        raise
    finally:
        # on_root and on_start refer to the parser, so either would make a
        # cycle that keeps the whole graph alive until the collector finds it.
        parser.StartElementHandler = None


def _start_tag(text: str, k: int | None = None) -> tuple[int, int]:
    """The (line, column) of the start tag of the ``k``-th (0-based) ``role``
    element of ``text`` or, with no ``k``, of the element that holds the first
    text that is not white space. It is found by a second parse, so that
    reading keeps no location; malformed text raises ``XmlSyntaxError``.

    ``edges[k]`` of ``from_xml`` starts at the ``k``-th role start tag: edges
    are appended in document order."""
    parser = expat.ParserCreate(namespace_separator="}")
    open_tags: list[tuple[int, int]] = []
    roles = itertools.count()
    found = []

    def on_start(name, _):
        open_tags.append((parser.CurrentLineNumber, parser.CurrentColumnNumber + 1))
        if name == "role" and next(roles) == k:
            found.append(open_tags[-1])

    def on_text(data):
        if k is None and data.strip():
            found.append(open_tags[-1])

    parser.StartElementHandler = on_start
    parser.EndElementHandler = lambda _: open_tags.pop()
    parser.CharacterDataHandler = on_text
    try:
        _parse(parser, text)
    finally:
        parser.StartElementHandler = None  # a cycle otherwise, as in _read
    return found[0]


def _role_label(name: str, index_text: str | None, source: str) -> RoleLabel:
    if not name:
        raise XmlSchemaError(f"empty role name on a role of '{source}'")
    if index_text is None:
        return RoleLabel(name)
    if not _INDEX_RE.match(index_text):
        raise XmlSchemaError(f"role index must be a positive integer, got {index_text!r}")
    try:
        return RoleLabel(name, int(index_text))
    except ValueError:  # more digits than int() converts
        raise XmlSchemaError(f"role index has too many digits ({len(index_text)})") from None


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
    value = ""  # the name or value on that element
    classes: list[str] = []  # of the entity element the parser is in

    def start(name, attributes):
        nonlocal source, value
        if name == "role":
            key = (attributes["name"], attributes.get("index"))
            target = attributes["target"]
            label = labels.get(key)
            if label is None:
                label = labels[key] = _role_label(*key, source)
            edges.append(Edge(source, label, target))
        elif name == "class":
            cls = attributes["name"]
            if not cls:
                raise XmlSchemaError(f"empty class name on entity '{source}'")
            classes.append(cls)
        else:
            node_id = attributes["id"]
            value = (attributes["name"] if name == "concept" else
                     attributes["value"] if name == "entity" else None)
            if not _ID_RE.match(node_id):
                raise XmlSchemaError(f"invalid node id {node_id!r} on element '{name}'")
            if node_id in nodes:
                raise XmlSchemaError(f"duplicate node id '{node_id}'")
            if name == "concept":
                if not value:
                    raise XmlSchemaError(f"empty concept name on node '{node_id}'")
                nodes[node_id] = ConceptNode(node_id, value)
            elif name == "entity":
                if not value:
                    raise XmlSchemaError(f"empty entity value on node '{node_id}'")
                # Made at the end tag, once its classes are read; the key is
                # taken now, so that nodes keep document order.
                nodes[node_id] = None
                classes.clear()
            else:
                nodes[node_id] = OmittedNode(node_id)
            source = node_id

    def end():
        nodes[source] = EntityNode(source, value, tuple(classes))

    _read(text, _GRAPH, "semanticgraph", start, "entity", end)
    for k, edge in enumerate(edges):
        if edge.target not in nodes:
            raise XmlSchemaError(f"role target references unknown id '{edge.target}'",
                                 *_start_tag(text, k))
    return graph


def catalogue_to_xml(catalogue: ConceptCatalogue) -> str:
    """Serialize a catalogue; entries are sorted by concept name.

    Definition descriptions are not part of the exchange format and are
    dropped on write. An ``entries`` key that is not its definition's name is
    a construction fault: it raises ``GraphError``.
    """
    if not catalogue.entries:
        return '<catalogue version="1"/>'
    parts = ['<catalogue version="1">']
    for name in sorted(catalogue.entries):
        definition = catalogue.entries[name]
        if name != definition.name:
            raise GraphError(f"catalogue key {name!r} is not the name of its definition"
                             f" {definition.name!r}")
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
    concept = ""  # name of the concept element the parser is in
    roles: dict[str, RoleSpec] = {}  # of that concept, by name

    def start(name, attributes):
        nonlocal concept
        if name == "concept":
            concept = attributes["name"]
            if not concept:
                raise XmlSchemaError("empty concept name in catalogue")
            if concept in catalogue:
                raise XmlSchemaError(f"duplicate concept '{concept}' in catalogue")
            roles.clear()
            return
        role = attributes["name"]
        if not role:
            raise XmlSchemaError(f"empty role name in concept '{concept}'")
        if role in roles:
            raise XmlSchemaError(f"role '{role}' declared twice in concept '{concept}'")
        indexed = attributes.get("indexed", "false")
        if indexed not in ("true", "false"):
            raise XmlSchemaError(f"indexed must be 'true' or 'false', got {indexed!r}")
        roles[role] = RoleSpec(role, indexed == "true")

    def end():
        catalogue.define(ConceptDefinition(concept, tuple(roles.values())))

    _read(text, _CATALOGUE, "catalogue", start, "concept", end)
    return catalogue
