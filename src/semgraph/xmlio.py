"""Canonical XML exchange format for semantic graphs and concept catalogues.

Writing is byte-deterministic: nodes are sorted by id (byte order), a
concept's role elements keep edge insertion order, and attribute layout is
fixed. Reading accepts any well-formed layout of the same element grammar.
It is one pass of expat, which calls each reader's own start handler once
per start tag: that call checks the element against the grammar table
(``_GRAPH`` or ``_CATALOGUE``) and builds its node, role edge or catalogue
entry, each once and field by field, since every check that the record's
constructor would repeat has been made. No element tree is kept. Nor is any
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
    EntityNode,
    GraphError,
    InvalidGraphError,
    OmittedNode,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    SourceError,
    _ID_RE,
    _edge,
    _new,
    _set,
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


def _misplaced(grammar: dict[str, tuple], parent: str, name: str) -> str:
    """Why element ``name`` may not be a child of element ``parent``."""
    if grammar[parent][0]:
        return f"unexpected element '{_tag(name)}' inside {grammar[parent][4]}"
    return f"element '{parent}' may not have children"


def _attribute_fault(name: str, attributes: dict, entry: tuple) -> str:
    """Why ``attributes`` do not fit element ``name``: the first unknown
    attribute, by its ElementTree name, or else the first missing one."""
    _, _, optional, required, _ = entry
    present = attributes.keys()
    unknown = min(map(_tag, present - {*required, optional}), default=None)
    if unknown:
        return f"unknown attribute '{unknown}' on element '{name}'"
    return f"missing attribute '{min(set(required) - present)}' on element '{name}'"


def _parser():
    return expat.ParserCreate(namespace_separator="}")


def _fault(parser, reason: str) -> XmlSchemaError:
    """An ``XmlSchemaError`` at the start tag that ``parser`` is in."""
    return XmlSchemaError(reason, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1)


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


def _read(parser, text: str, grammar: dict[str, tuple], root: str,
          start: Callable[[str, dict], None], end: Callable[[str], None]) -> None:
    """Parse ``text`` with ``parser`` in one expat pass. ``_read`` checks the
    root element and its version, and refuses a DOCTYPE and any text that is
    not white space. Below the root, expat calls the reader's
    ``start(name, attributes)`` itself at each start tag, and ``end(name)``
    at each end tag: one Python call per tag.

    ``start`` checks its element and builds it. It checks against
    ``grammar``, in this order: that the open element may hold it
    (``_misplaced``), its attribute count, then, after reading every required
    attribute, its own checks; an element whose count is right but whose
    names are not fails at that read with a ``KeyError``, reported as
    ``_attribute_fault``. It raises each fault at its start tag (``_fault``),
    so it refers to ``parser``: ``_read`` takes it off the parser at the end,
    or the two would be a cycle that keeps the whole graph alive until the
    collector finds it.

    A DOCTYPE stops the parse where it starts. Any other schema fault is
    reported only if the whole text is well-formed, so malformed markup
    always raises ``XmlSyntaxError``.
    """

    def on_root(name, attributes):
        if name != root:
            raise _fault(parser, f"unexpected root element '{_tag(name)}', expected '{root}'")
        if attributes.keys() != {"version"}:
            raise _fault(parser, _attribute_fault(name, attributes, grammar[name]))
        if attributes["version"] != "1":
            raise _fault(parser, f"unsupported {root} version '{attributes['version']}'")
        parser.StartElementHandler = start

    def on_text(data):
        if data.strip():  # placed, and its element named, below
            raise XmlSchemaError("unexpected text content")

    def on_doctype(*_):
        # Its internal subset could declare entities that expand to any text.
        raise XmlSchemaError(_DOCTYPE, *line_col(text, _PROLOG_RE.match(text).end()))

    parser.buffer_text = True
    parser.StartElementHandler = on_root
    parser.EndElementHandler = end
    parser.CharacterDataHandler = on_text
    parser.StartDoctypeDeclHandler = on_doctype
    try:
        _parse(parser, text)
    except XmlSchemaError as exc:
        if exc.reason == _DOCTYPE:
            raise
        if exc.line is None:  # stray text; _start_tag also raises XmlSyntaxError
            name, line, column = _start_tag(text)
            raise XmlSchemaError(f"{exc.reason} in element '{name}'", line, column) from None
        _parse(_parser(), text)
        raise
    finally:
        parser.StartElementHandler = None


def _start_tag(text: str, k: int | None = None) -> tuple[str, int, int]:
    """The name and (line, column) of the start tag of the ``k``-th (0-based)
    ``role`` element of ``text`` or, with no ``k``, of the element that holds
    the first text that is not white space. It is found by a second parse, so
    that reading keeps no location; malformed text raises ``XmlSyntaxError``.

    ``edges[k]`` of ``from_xml`` starts at the ``k``-th role start tag: edges
    are appended in document order."""
    parser = _parser()
    open_tags: list[tuple[str, int, int]] = []
    roles = itertools.count()
    found = []

    def on_start(name, _):
        open_tags.append((name, parser.CurrentLineNumber, parser.CurrentColumnNumber + 1))
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
    parser = _parser()
    # The grammar nests no deeper than a role or class in a node element, so
    # the open element is ``kind``, the root, or a role or class in ``kind``.
    parent = "semanticgraph"  # the open element
    kind = ""  # the node element last opened
    source = ""  # its id
    value = ""  # the name or value on it
    classes: list[str] = []  # of the entity element the parser is in

    def start(name, attributes):
        nonlocal parent, kind, source, value, classes
        if name not in _GRAPH[parent][0]:
            raise _fault(parser, _misplaced(_GRAPH, parent, name))
        entry = _GRAPH[name]
        count = len(attributes)
        if count != entry[1] + (entry[2] in attributes):
            raise _fault(parser, _attribute_fault(name, attributes, entry))
        parent = name
        # Each record is made once, field by field, as its dataclass __init__
        # does: the checks its __post_init__ would repeat are made here.
        try:
            if name == "role":
                # A role has three attributes exactly when one is its index.
                key = (attributes["name"], attributes["index"] if count == 3 else None)
                target = attributes["target"]
                if key in labels:
                    label = labels[key]
                else:
                    label = labels[key] = _role_label(*key, source)
                edges.append(_edge((source, label, target)))
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
                    node = _new(ConceptNode)
                    _set(node, "id", node_id)
                    _set(node, "name", value)
                    nodes[node_id] = node
                elif name == "entity":
                    if not value:
                        raise XmlSchemaError(f"empty entity value on node '{node_id}'")
                    # Made at the end tag, once its classes are read; the key is
                    # taken now, so that nodes keep document order.
                    nodes[node_id] = None
                    classes = []
                else:
                    node = _new(OmittedNode)
                    _set(node, "id", node_id)
                    nodes[node_id] = node
                kind, source = name, node_id
        except KeyError:
            raise _fault(parser, _attribute_fault(name, attributes, entry)) from None
        except XmlSchemaError as exc:
            raise _fault(parser, exc.reason) from None

    def end(name):
        nonlocal parent
        if name != kind:  # a role or class, or the root
            parent = kind
            return
        parent = "semanticgraph"
        if name == "entity":
            node = _new(EntityNode)
            _set(node, "id", source)
            _set(node, "value", value)
            _set(node, "classes", tuple(classes))
            nodes[source] = node

    _read(parser, text, _GRAPH, "semanticgraph", start, end)
    for k, edge in enumerate(edges):
        if edge.target not in nodes:
            raise XmlSchemaError(f"role target references unknown id '{edge.target}'",
                                 *_start_tag(text, k)[1:])
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
    entries = catalogue.entries
    specs: dict[tuple[str, str], RoleSpec] = {}  # one per (name, indexed text)
    parser = _parser()
    parent = "catalogue"  # the open element: the root, a concept, or a role in it
    concept = ""  # name of the concept element last opened
    roles: dict[str, RoleSpec] = {}  # of that concept, by name

    def start(name, attributes):
        nonlocal parent, concept, roles
        if name not in _CATALOGUE[parent][0]:
            raise _fault(parser, _misplaced(_CATALOGUE, parent, name))
        entry = _CATALOGUE[name]
        count = len(attributes)
        if count != entry[1] + (entry[2] in attributes):
            raise _fault(parser, _attribute_fault(name, attributes, entry))
        parent = name
        try:
            if name == "concept":
                concept = attributes["name"]
                if not concept:
                    raise XmlSchemaError("empty concept name in catalogue")
                if concept in entries:
                    raise XmlSchemaError(f"duplicate concept '{concept}' in catalogue")
                roles = {}
                return
            role = attributes["name"]
            if not role:
                raise XmlSchemaError(f"empty role name in concept '{concept}'")
            if role in roles:
                raise XmlSchemaError(f"role '{role}' declared twice in concept '{concept}'")
            # A role has two attributes exactly when one is its indexed flag.
            indexed = attributes["indexed"] if count == 2 else "false"
            key = (role, indexed)
            if key in specs:
                roles[role] = specs[key]
                return
            if indexed not in ("true", "false"):
                raise XmlSchemaError(f"indexed must be 'true' or 'false', got {indexed!r}")
            # Made field by field, as in from_xml.
            spec = roles[role] = specs[key] = _new(RoleSpec)
            _set(spec, "name", role)
            _set(spec, "indexed", indexed == "true")
        except KeyError:
            raise _fault(parser, _attribute_fault(name, attributes, entry)) from None
        except XmlSchemaError as exc:
            raise _fault(parser, exc.reason) from None

    def end(name):
        nonlocal parent
        if name != "concept":  # a role, or the root
            parent = "concept"
            return
        parent = "catalogue"
        definition = _new(ConceptDefinition)
        _set(definition, "name", concept)
        _set(definition, "roles", tuple(roles.values()))
        _set(definition, "description", None)
        entries[concept] = definition

    _read(parser, text, _CATALOGUE, "catalogue", start, end)
    return catalogue
