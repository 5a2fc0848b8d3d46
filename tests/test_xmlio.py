import xml.etree.ElementTree as ET

import pytest

from semgraph.model import (
    ENTITY_OUT_EDGE,
    OMITTED_OUT_EDGE,
    InvalidGraphError,
    RoleLabel,
    RoleSpec,
    ConceptCatalogue,
    ConceptDefinition,
    Edge,
    SemanticGraph,
    structure_key,
    validate,
)
from semgraph.xmlio import (
    XmlError,
    XmlSchemaError,
    XmlSyntaxError,
    catalogue_from_xml,
    catalogue_to_xml,
    from_xml,
    to_xml,
)
from graphgen import corpus
from helpers import fig1_graph


class TestToXml:
    def test_single_concept_exact_bytes(self):
        g = SemanticGraph()
        g.add_concept("Well")
        assert to_xml(g) == ('<semanticgraph version="1">'
                             '<concept id="n1" name="Well"/></semanticgraph>')

    def test_empty_graph(self):
        assert to_xml(SemanticGraph()) == '<semanticgraph version="1"/>'

    def test_entity_fragment(self):
        g = SemanticGraph()
        g.add_concept("a")
        g.add_concept("b")
        g.add_concept("c")
        g.add_entity("4", ["5-level degree"])
        assert ('<entity id="n4" value="4">'
                '<class name="5-level degree"/></entity>') in to_xml(g)

    def test_indexed_roles_in_index_order(self):
        g = SemanticGraph()
        event = g.add_concept("Event")
        e1 = g.add_concept("E1")
        e2 = g.add_concept("E2")
        g.add_edge(event, RoleLabel("subEvent", 1), e1)
        g.add_edge(event, RoleLabel("subEvent", 2), e2)
        assert ('<role name="subEvent" index="1" target="n2"/>'
                '<role name="subEvent" index="2" target="n3"/>') in to_xml(g)

    def test_attribute_escaping(self):
        g = SemanticGraph()
        g.add_concept('A&B<C>"D\'E')
        document = to_xml(g)
        assert "&amp;" in document and "&lt;" in document and "&gt;" in document
        assert "&quot;" in document and "&apos;" in document

    def test_whitespace_escaping(self):
        g = SemanticGraph()
        g.add_entity("line\nbreak\ttab")
        document = to_xml(g)
        assert "&#10;" in document and "&#9;" in document

    def test_nodes_sorted_by_id_byte_order(self):
        g = SemanticGraph()
        for _ in range(11):
            g.add_concept("X")
        document = to_xml(g)
        # byte order: n1 < n10 < n11 < n2
        assert document.index('id="n1"') < document.index('id="n10"') \
            < document.index('id="n11"') < document.index('id="n2"')

    def test_invalid_graph_rejected_with_violations(self):
        g = SemanticGraph()
        entity = g.add_entity("4")
        g.edges.append(Edge(entity, RoleLabel("X"), entity))
        with pytest.raises(InvalidGraphError) as exc:
            to_xml(g)
        assert [v.code for v in exc.value.violations] == [ENTITY_OUT_EDGE]


class TestFromXml:
    def test_empty_document(self):
        g = from_xml('<semanticgraph version="1"/>')
        assert not g.nodes and not g.edges

    def test_fig1_round_trip(self):
        g = fig1_graph()
        assert from_xml(to_xml(g)).structurally_equal(g)

    def test_accepts_insignificant_whitespace(self):
        document = ('<semanticgraph version="1">\n'
                    '  <concept id="a" name="X">\n'
                    '    <role name="r" target="a"/>\n'
                    '  </concept>\n'
                    '</semanticgraph>\n')
        g = from_xml(document)
        assert len(g.nodes) == 1 and len(g.edges) == 1

    def test_malformed_markup_reports_line(self):
        with pytest.raises(XmlSyntaxError) as exc:
            from_xml('<semanticgraph version="1">\n<concept id="a"')
        assert (exc.value.line, exc.value.column) == (2, 1)
        assert str(exc.value) == "malformed XML: unclosed token (line 2, column 1)"

    @pytest.mark.parametrize("read,root", [(from_xml, "semanticgraph"),
                                           (catalogue_from_xml, "catalogue")])
    def test_doctype_rejected_with_line(self, read, root):
        document = (f'<?xml version="1.0"?>\n<!-- <!DOCTYPE -->\n'
                    f'<!DOCTYPE {root} [<!ENTITY a "Room">]>\n<{root} version="1"/>')
        with pytest.raises(XmlSchemaError) as exc:
            read(document)
        assert str(exc.value) == "DOCTYPE declarations are not allowed (line 3, column 1)"

    @pytest.mark.parametrize("read,root", [(from_xml, "semanticgraph"),
                                           (catalogue_from_xml, "catalogue")])
    def test_doctype_stops_the_parse(self, read, root, monkeypatch):
        # Rejection must not read the rest of the input: count what reaches
        # the parser before the error, for a DOCTYPE ahead of 4 MB of markup.
        fed = []
        real_parser = ET.XMLParser

        class CountingParser:
            def __init__(self, **kwargs):
                self.parser = real_parser(**kwargs)

            def feed(self, data):
                fed.append(len(data))
                self.parser.feed(data)

            def close(self):
                return self.parser.close()

        document = (f'<!DOCTYPE {root}>\n<{root} version="1">'
                    + '<concept name="x"/>' * 200_000 + f"</{root}>")
        monkeypatch.setattr(ET, "XMLParser", CountingParser)
        with pytest.raises(XmlSchemaError) as exc:
            read(document)
        assert str(exc.value) == "DOCTYPE declarations are not allowed (line 1, column 1)"
        assert sum(fed) <= 1 << 16 < len(document)

    def test_index_too_long_for_int_rejected(self):
        document = ('<semanticgraph version="1"><concept id="a" name="X">'
                    f'<role name="r" index="1{"0" * 5000}" target="a"/>'
                    '</concept></semanticgraph>')
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(document)
        assert str(exc.value) == "role index has too many digits (5001)"

    def test_dangling_target_names_the_id(self):
        document = ('<semanticgraph version="1"><concept id="a" name="X">'
                    '<role name="r" target="zz"/></concept></semanticgraph>')
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(document)
        assert "zz" in str(exc.value)

    def test_role_under_entity_is_loaded_then_flagged(self):
        document = ('<semanticgraph version="1"><entity id="a" value="4">'
                    '<role name="X" target="a"/></entity></semanticgraph>')
        g = from_xml(document)
        assert [v.code for v in validate(g)] == [ENTITY_OUT_EDGE]

    def test_role_under_omitted_is_loaded_then_flagged(self):
        document = ('<semanticgraph version="1"><omitted id="a">'
                    '<role name="X" target="a"/></omitted></semanticgraph>')
        g = from_xml(document)
        assert [v.code for v in validate(g)] == [OMITTED_OUT_EDGE]

    def test_preserves_ids(self):
        document = ('<semanticgraph version="1"><concept id="k9" name="X"/>'
                    '</semanticgraph>')
        assert "k9" in from_xml(document).nodes


def _base_document() -> str:
    return ('<semanticgraph version="1">'
            '<concept id="c1" name="Bottom">'
            '<role name="Container" target="c2"/>'
            '<role name="subEvent" index="1" target="e1"/>'
            '</concept>'
            '<concept id="c2" name="Well"/>'
            '<entity id="e1" value="4"><class name="5-level degree"/></entity>'
            '<omitted id="o1"/>'
            '</semanticgraph>')


def _mutations():
    """Single-field corruptions of a valid document; every one must be rejected."""
    def mutate(description, apply):
        root = ET.fromstring(_base_document())
        apply(root)
        return description, ET.tostring(root, encoding="unicode")

    def concept(root):
        return root.find("concept")

    def role(root):
        return root.find("concept").find("role")

    yield mutate("root renamed", lambda r: setattr(r, "tag", "graph"))
    yield mutate("bad version", lambda r: r.set("version", "2"))
    yield mutate("version removed", lambda r: r.attrib.pop("version"))
    yield mutate("unknown root attribute", lambda r: r.set("flavour", "x"))
    yield mutate("unknown element", lambda r: setattr(concept(r), "tag", "conzept"))
    yield mutate("bad id charset", lambda r: concept(r).set("id", "c 1"))
    yield mutate("id collision", lambda r: r.find("entity").set("id", "c1"))
    yield mutate("concept name removed", lambda r: concept(r).attrib.pop("name"))
    yield mutate("concept name emptied", lambda r: concept(r).set("name", ""))
    yield mutate("unknown concept attribute", lambda r: concept(r).set("x", "y"))
    yield mutate("role target removed", lambda r: role(r).attrib.pop("target"))
    yield mutate("role target dangling", lambda r: role(r).set("target", "zz"))
    yield mutate("role index zero", lambda r: role(r).set("index", "0"))
    yield mutate("role index non-numeric", lambda r: role(r).set("index", "x"))
    yield mutate("role index padded", lambda r: role(r).set("index", "01"))
    yield mutate("role name emptied", lambda r: role(r).set("name", ""))
    yield mutate("unknown role attribute", lambda r: role(r).set("x", "y"))
    yield mutate("entity value removed", lambda r: r.find("entity").attrib.pop("value"))
    yield mutate("entity value emptied", lambda r: r.find("entity").set("value", ""))
    yield mutate("entity id charset", lambda r: r.find("entity").set("id", "e/1"))
    yield mutate("class name emptied",
                 lambda r: r.find("entity").find("class").set("name", ""))
    yield mutate("unknown class attribute",
                 lambda r: r.find("entity").find("class").set("x", "y"))
    yield mutate("unknown omitted attribute", lambda r: r.find("omitted").set("x", "y"))
    yield mutate("class under concept",
                 lambda r: concept(r).append(ET.Element("class", {"name": "X"})))
    yield mutate("text content in concept", lambda r: setattr(concept(r), "text", "junk"))
    yield mutate("child under role",
                 lambda r: role(r).append(ET.Element("role", {"name": "r", "target": "c1"})))


def test_base_mutation_document_is_valid():
    g = from_xml(_base_document())
    assert validate(g) == []
    assert to_xml(g) == _base_document()


@pytest.mark.parametrize("description,document", list(_mutations()),
                         ids=lambda value: value if isinstance(value, str) else "")
def test_every_single_field_corruption_is_rejected(description, document):
    with pytest.raises(XmlError):
        from_xml(document)


class TestRoundTripCorpus:
    def test_round_trip_and_determinism(self):
        for g in corpus(20250809, 150):
            document = to_xml(g)
            restored = from_xml(document)
            assert restored.structurally_equal(g)
            assert to_xml(restored) == document

    def test_injectivity_at_desk_scale(self):
        graphs = corpus(20250810, 200, max_nodes=6, max_edges=6)
        documents = {}
        for g in graphs:
            documents.setdefault(to_xml(g), set()).add(structure_key(g))
        for keys in documents.values():
            assert len(keys) == 1

    def test_same_seed_same_bytes(self):
        first = [to_xml(g) for g in corpus(77, 30)]
        second = [to_xml(g) for g in corpus(77, 30)]
        assert first == second


class TestCatalogueXml:
    def test_example_exact_bytes(self):
        catalogue = ConceptCatalogue([
            ConceptDefinition("Bottom", [RoleSpec("Container"), RoleSpec("Contained")])])
        assert catalogue_to_xml(catalogue) == (
            '<catalogue version="1"><concept name="Bottom">'
            '<role name="Container"/><role name="Contained"/></concept></catalogue>')

    def test_empty_catalogue(self):
        assert catalogue_to_xml(ConceptCatalogue()) == '<catalogue version="1"/>'
        assert len(catalogue_from_xml('<catalogue version="1"/>')) == 0

    def test_indexed_flag_round_trip(self):
        catalogue = ConceptCatalogue([
            ConceptDefinition("Event", [RoleSpec("subEvent", indexed=True)]),
            ConceptDefinition("Plain", [RoleSpec("r")]),
        ])
        document = catalogue_to_xml(catalogue)
        assert '<role name="subEvent" indexed="true"/>' in document
        restored = catalogue_from_xml(document)
        assert restored.get("Event").role("subEvent").indexed
        assert not restored.get("Plain").role("r").indexed
        assert catalogue_to_xml(restored) == document

    def test_entries_sorted_by_name(self):
        catalogue = ConceptCatalogue([ConceptDefinition("Zeta"), ConceptDefinition("Alpha")])
        document = catalogue_to_xml(catalogue)
        assert document.index("Alpha") < document.index("Zeta")

    def test_duplicate_role_in_file_rejected(self):
        document = ('<catalogue version="1"><concept name="A">'
                    '<role name="r"/><role name="r"/></concept></catalogue>')
        with pytest.raises(XmlSchemaError):
            catalogue_from_xml(document)

    def test_duplicate_concept_in_file_rejected(self):
        document = ('<catalogue version="1"><concept name="A"/>'
                    '<concept name="A"/></catalogue>')
        with pytest.raises(XmlSchemaError):
            catalogue_from_xml(document)

    def test_bad_indexed_value_rejected(self):
        document = ('<catalogue version="1"><concept name="A">'
                    '<role name="r" indexed="yes"/></concept></catalogue>')
        with pytest.raises(XmlSchemaError):
            catalogue_from_xml(document)

    def test_description_not_serialized(self):
        catalogue = ConceptCatalogue([
            ConceptDefinition("A", [RoleSpec("r")], description="internal note")])
        restored = catalogue_from_xml(catalogue_to_xml(catalogue))
        assert restored.get("A").description is None
        assert [r.name for r in restored.get("A").roles] == ["r"]
