"""The ElementTree-based XML reader that the streaming one in
``semgraph.xmlio`` replaced, kept as an oracle for differential tests.

It builds the whole element tree first and then walks it, so among several
schema faults it reports the first one of its walk, not of the text, and its
schema errors carry no location.
"""

import re
import xml.etree.ElementTree as ET
from xml.parsers import expat

from semgraph.model import (
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    OmittedNode,
    RoleLabel,
    RoleSpec,
    SemanticGraph,
    _ID_RE,
    line_col,
)
from semgraph.xmlio import XmlSchemaError, XmlSyntaxError

_INDEX_RE = re.compile(r"[1-9][0-9]*\Z")
_FEED_CHARS = 1 << 16


class _NoDoctype(ET.TreeBuilder):
    """Builds the element tree of ``text`` but refuses a DOCTYPE: its internal
    subset can declare entities that expand to any text, and the exchange
    format has no use for one."""

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def doctype(self, name, pubid, system):
        # Only the XML declaration, comments, PIs and white space precede it.
        at = re.match(r"(?:<\?.*?\?>|<!--.*?-->|\s)*", self.text, re.DOTALL).end()
        raise XmlSchemaError("DOCTYPE declarations are not allowed", *line_col(self.text, at))


def _parse_root(text: str, expected_tag: str) -> ET.Element:
    # Fed in chunks: an error raised by the target (a DOCTYPE) ends the feed
    # call it happens in, but expat would otherwise read on to the end.
    parser = ET.XMLParser(target=_NoDoctype(text))
    try:
        for start in range(0, len(text), _FEED_CHARS):
            parser.feed(text[start:start + _FEED_CHARS])
        root = parser.close()
    except ET.ParseError as exc:
        line, column = exc.position
        raise XmlSyntaxError(f"malformed XML: {expat.ErrorString(exc.code)}",
                             line, column + 1) from exc
    if root.tag != expected_tag:
        raise XmlSchemaError(
            f"unexpected root element '{root.tag}', expected '{expected_tag}'")
    return root


def _check_attrs(element: ET.Element, required: set[str], optional: set[str] = frozenset()):
    present = set(element.attrib)
    unknown = present - required - optional
    if unknown:
        raise XmlSchemaError(
            f"unknown attribute '{sorted(unknown)[0]}' on element '{element.tag}'")
    missing = required - present
    if missing:
        raise XmlSchemaError(
            f"missing attribute '{sorted(missing)[0]}' on element '{element.tag}'")


def _check_no_text(element: ET.Element):
    if element.text and element.text.strip():
        raise XmlSchemaError(f"unexpected text content in element '{element.tag}'")
    for child in element:
        if child.tail and child.tail.strip():
            raise XmlSchemaError(f"unexpected text content in element '{element.tag}'")


def _check_version(element: ET.Element):
    _check_attrs(element, {"version"})
    version = element.get("version")
    if version != "1":
        raise XmlSchemaError(f"unsupported {element.tag} version '{version}'")


def _node_id(element: ET.Element, seen: set[str]) -> str:
    node_id = element.get("id", "")
    if not _ID_RE.match(node_id):
        raise XmlSchemaError(f"invalid node id {node_id!r} on element '{element.tag}'")
    if node_id in seen:
        raise XmlSchemaError(f"duplicate node id '{node_id}'")
    seen.add(node_id)
    return node_id


def _read_role(element: ET.Element, source: str) -> tuple[str, RoleLabel, str]:
    _check_attrs(element, {"name", "target"}, {"index"})
    _check_no_text(element)
    if len(element):
        raise XmlSchemaError("element 'role' may not have children")
    name = element.get("name", "")
    if not name:
        raise XmlSchemaError(f"empty role name on a role of '{source}'")
    index_text = element.get("index")
    index = None
    if index_text is not None:
        if not _INDEX_RE.match(index_text):
            raise XmlSchemaError(
                f"role index must be a positive integer, got {index_text!r}")
        try:
            index = int(index_text)
        except ValueError:  # more digits than int() converts
            raise XmlSchemaError(f"role index has too many digits ({len(index_text)})") from None
    return source, RoleLabel(name, index), element.get("target", "")


def from_xml(text: str) -> SemanticGraph:
    """Parse a semantic graph document, preserving the serialized node ids.

    The element grammar is checked strictly with one deliberate exception:
    ``role`` children are also accepted under ``entity`` and ``omitted``
    elements, so that structurally invalid graphs can be loaded and then
    diagnosed by validation (they can never be produced by ``to_xml``).
    Role targets must resolve to an id in the document.
    """
    root = _parse_root(text, "semanticgraph")
    _check_version(root)
    _check_no_text(root)
    graph = SemanticGraph()
    pending_roles: list[tuple[str, RoleLabel, str]] = []
    seen: set[str] = set()
    for element in root:
        if element.tag == "concept":
            _check_attrs(element, {"id", "name"})
            _check_no_text(element)
            node_id = _node_id(element, seen)
            name = element.get("name", "")
            if not name:
                raise XmlSchemaError(f"empty concept name on node '{node_id}'")
            graph.nodes[node_id] = ConceptNode(node_id, name)
            for child in element:
                if child.tag != "role":
                    raise XmlSchemaError(
                        f"unexpected element '{child.tag}' inside 'concept'")
                pending_roles.append(_read_role(child, node_id))
        elif element.tag == "entity":
            _check_attrs(element, {"id", "value"})
            _check_no_text(element)
            node_id = _node_id(element, seen)
            value = element.get("value", "")
            if not value:
                raise XmlSchemaError(f"empty entity value on node '{node_id}'")
            classes: list[str] = []
            for child in element:
                if child.tag == "class":
                    _check_attrs(child, {"name"})
                    _check_no_text(child)
                    if len(child):
                        raise XmlSchemaError("element 'class' may not have children")
                    cls = child.get("name", "")
                    if not cls:
                        raise XmlSchemaError(f"empty class name on entity '{node_id}'")
                    classes.append(cls)
                elif child.tag == "role":
                    pending_roles.append(_read_role(child, node_id))
                else:
                    raise XmlSchemaError(
                        f"unexpected element '{child.tag}' inside 'entity'")
            graph.nodes[node_id] = EntityNode(node_id, value, classes)
        elif element.tag == "omitted":
            _check_attrs(element, {"id"})
            _check_no_text(element)
            node_id = _node_id(element, seen)
            graph.nodes[node_id] = OmittedNode(node_id)
            for child in element:
                if child.tag != "role":
                    raise XmlSchemaError(
                        f"unexpected element '{child.tag}' inside 'omitted'")
                pending_roles.append(_read_role(child, node_id))
        else:
            raise XmlSchemaError(
                f"unexpected element '{element.tag}' inside 'semanticgraph'")
    for source, label, target in pending_roles:
        if target not in graph.nodes:
            raise XmlSchemaError(f"role target references unknown id '{target}'")
        graph.edges.append(Edge(source, label, target))
    return graph


def catalogue_from_xml(text: str) -> ConceptCatalogue:
    """Parse a concept catalogue document."""
    root = _parse_root(text, "catalogue")
    _check_version(root)
    _check_no_text(root)
    catalogue = ConceptCatalogue()
    for element in root:
        if element.tag != "concept":
            raise XmlSchemaError(
                f"unexpected element '{element.tag}' inside 'catalogue'")
        _check_attrs(element, {"name"})
        _check_no_text(element)
        name = element.get("name", "")
        if not name:
            raise XmlSchemaError("empty concept name in catalogue")
        if name in catalogue:
            raise XmlSchemaError(f"duplicate concept '{name}' in catalogue")
        roles: list[RoleSpec] = []
        role_names: set[str] = set()
        for child in element:
            if child.tag != "role":
                raise XmlSchemaError(
                    f"unexpected element '{child.tag}' inside catalogue concept")
            _check_attrs(child, {"name"}, {"indexed"})
            _check_no_text(child)
            if len(child):
                raise XmlSchemaError("element 'role' may not have children")
            role_name = child.get("name", "")
            if not role_name:
                raise XmlSchemaError(f"empty role name in concept '{name}'")
            if role_name in role_names:
                raise XmlSchemaError(
                    f"role '{role_name}' declared twice in concept '{name}'")
            role_names.add(role_name)
            indexed_text = child.get("indexed", "false")
            if indexed_text not in ("true", "false"):
                raise XmlSchemaError(
                    f"indexed must be 'true' or 'false', got {indexed_text!r}")
            roles.append(RoleSpec(role_name, indexed_text == "true"))
        catalogue.define(ConceptDefinition(name, roles))
    return catalogue
