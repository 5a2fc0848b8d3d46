import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import xml_oracle
from semgraph.model import (
    ENTITY_OUT_EDGE,
    OMITTED_OUT_EDGE,
    GraphError,
    InvalidGraphError,
    RoleLabel,
    RoleSpec,
    ConceptCatalogue,
    ConceptDefinition,
    ConceptNode,
    Edge,
    EntityNode,
    OmittedNode,
    SemanticGraph,
    validate,
)
from semgraph import xmlio
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
from helpers import fig1_graph, structure_key
from test_fuzz import SEEDS, mutated


def _xml_char(c: str) -> bool:
    """XML 1.0's Char production."""
    return (c in "\t\n\r" or " " <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
            or c >= "\U00010000")


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

    @pytest.mark.parametrize("index", [True, "2", 1.0])
    def test_only_an_int_index_reaches_the_writer(self, index):
        # A bool index was written as index="True", which from_xml refuses.
        with pytest.raises(GraphError, match="^role index must be an int, got "):
            RoleLabel("op", index)
        g = SemanticGraph()
        a = g.add_concept("A")
        g.add_edge(a, RoleLabel("op", 1), g.add_concept("B"))
        document = to_xml(g)
        assert '<role name="op" index="1" target="n2"/>' in document
        assert to_xml(from_xml(document)) == document

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

    @settings(max_examples=200)
    @given(st.text(st.sampled_from('&<>"\'\n\t\rab\x01\x1f\ud800\uffff')
                   | st.characters()))
    def test_escape_equals_the_replace_chain(self, text):
        uncarried = [c for c in text if not _xml_char(c)]
        if uncarried:
            with pytest.raises(GraphError, match=f"U\\+{ord(uncarried[0]):04X} "):
                xmlio._escape(text)
            return
        chain = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        chain = chain.replace('"', "&quot;").replace("'", "&apos;")
        chain = chain.replace("\n", "&#10;").replace("\t", "&#9;").replace("\r", "&#13;")
        assert xmlio._escape(text) == chain

    @settings(max_examples=200)
    @given(st.text(st.sampled_from("a&\n\x00\x0b\x7f\ud800\ufffe") | st.characters(),
                   min_size=1), st.text(st.characters(), min_size=1))
    def test_any_name_and_value_round_trips_or_is_refused(self, name, value):
        g = SemanticGraph()
        g.add_edge(g.add_concept(name), "r", g.add_entity(value, [name]))
        try:
            document = to_xml(g)
        except GraphError:
            assert not all(map(_xml_char, name + value))
            return
        restored = from_xml(document)
        assert structure_key(restored) == structure_key(g)
        assert to_xml(restored) == document

    @pytest.mark.parametrize("char", ["\x00", "\x08", "\x0b", "\x0c", "\x1f", "\ud800",
                                      "\udfff", "\ufffe", "\uffff"])
    def test_characters_xml_cannot_carry_are_refused(self, char):
        g = SemanticGraph()
        g.add_concept(f"a{char}b")
        with pytest.raises(GraphError, match=f"^XML cannot carry the character"
                                             f" U\\+{ord(char):04X} in "):
            to_xml(g)
        catalogue = ConceptCatalogue([ConceptDefinition("A", [RoleSpec(char)])])
        with pytest.raises(GraphError, match=f"U\\+{ord(char):04X}"):
            catalogue_to_xml(catalogue)

    def test_classes_cannot_be_appended_to(self):
        # So no empty class name, which from_xml rejects, can reach the writer.
        g = SemanticGraph()
        node = g.nodes[g.add_entity("v", ["k"])]
        with pytest.raises(AttributeError):
            node.classes.append("")
        assert to_xml(g) == ('<semanticgraph version="1"><entity id="n1" value="v">'
                             '<class name="k"/></entity></semanticgraph>')

    def test_ids_and_targets_are_written_as_they_are(self, monkeypatch):
        g = SemanticGraph()
        g.add_edge(g.add_concept("a&b"), "r", g.add_omitted())
        escaped = []
        monkeypatch.setattr(xmlio, "_escape", lambda text: escaped.append(text) or text)
        assert to_xml(g) == ('<semanticgraph version="1"><concept id="n1" name="a&b">'
                             '<role name="r" target="n2"/></concept><omitted id="n2"/>'
                             '</semanticgraph>')
        assert escaped == ["a&b", "r"]

    def test_special_characters_round_trip(self):
        special = "a&b<c>d\"e'f\ng\th\ri"
        g = SemanticGraph()
        concept = g.add_concept(special)
        g.add_edge(concept, "r", g.add_entity(special, [special, "plain"]))
        document = to_xml(g)
        escaped = "a&amp;b&lt;c&gt;d&quot;e&apos;f&#10;g&#9;h&#13;i"
        assert document.count(escaped) == 3
        restored = from_xml(document)
        assert structure_key(restored) == structure_key(g)
        assert to_xml(restored) == document

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
        assert structure_key(from_xml(to_xml(g))) == structure_key(g)

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
    def test_doctype_stops_the_parse(self, read, root):
        # Malformed markup is reported ahead of any other fault, so the DOCTYPE
        # error can only win over the syntax error at the end of 4 MB of
        # markup if the parse stopped at the DOCTYPE.
        document = (f'<!DOCTYPE {root}>\n<{root} version="1">'
                    + '<concept name="x"/>' * 200_000 + f"</{root}")
        with pytest.raises(XmlSchemaError) as exc:
            read(document)
        assert str(exc.value) == "DOCTYPE declarations are not allowed (line 1, column 1)"

    def test_index_too_long_for_int_rejected(self):
        document = ('<semanticgraph version="1"><concept id="a" name="X">'
                    f'<role name="r" index="1{"0" * 5000}" target="a"/>'
                    '</concept></semanticgraph>')
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(document)
        assert str(exc.value) == "role index has too many digits (5001) (line 1, column 53)"

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

    def test_entity_is_made_once_with_its_classes_in_document_order(self):
        document = ('<semanticgraph version="1"><omitted id="z"/>'
                    '<entity id="e" value="v"><class name="a"/><role name="r" target="z"/>'
                    '<class name="b"/></entity><entity id="f" value="w"/>'
                    '<concept id="c" name="X"/></semanticgraph>')
        g = from_xml(document)
        assert list(g.nodes) == ["z", "e", "f", "c"]
        assert g.nodes["e"].classes == ("a", "b")
        assert g.nodes["f"].classes == ()
        assert g.edges == [Edge("e", RoleLabel("r"), "z")]


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
            assert structure_key(restored) == structure_key(g)
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

    @settings(max_examples=200)
    @given(st.dictionaries(
        st.text(),
        st.dictionaries(st.text(st.sampled_from("ab\x00&\n") | st.characters()),
                        st.booleans(), max_size=4),
        max_size=4))
    @example({"A": {"": False}})
    def test_any_catalogue_round_trips_or_is_refused(self, spec):
        # A catalogue is refused when it is built or written, or else the
        # reader reads back what the writer wrote.
        try:
            document = catalogue_to_xml(ConceptCatalogue(
                ConceptDefinition(name, [RoleSpec(*role) for role in roles.items()])
                for name, roles in spec.items()))
        except GraphError:
            names = [*spec, *(role for roles in spec.values() for role in roles)]
            assert not all(name and all(map(_xml_char, name)) for name in names)
            return
        restored = catalogue_from_xml(document)
        assert {name: [(r.name, r.indexed) for r in d.roles]
                for name, d in restored.entries.items()} == {
            name: list(roles.items()) for name, roles in spec.items()}
        assert catalogue_to_xml(restored) == document

    @pytest.mark.parametrize("key,name", [("", "A"), ("B", "A")], ids=["empty", "other"])
    def test_key_that_is_not_its_definitions_name_is_refused(self, key, name):
        catalogue = ConceptCatalogue()
        catalogue.entries[key] = ConceptDefinition(name)
        with pytest.raises(GraphError) as caught:
            catalogue_to_xml(catalogue)
        assert str(caught.value) == (
            f"catalogue key {key!r} is not the name of its definition {name!r}")

    def test_entries_sorted_by_name(self):
        catalogue = ConceptCatalogue([ConceptDefinition("Zeta"), ConceptDefinition("Alpha")])
        document = catalogue_to_xml(catalogue)
        assert document.index("Alpha") < document.index("Zeta")

    def test_definition_is_made_once_with_its_roles(self):
        document = ('<catalogue version="1"><concept name="A"><role name="r"/>'
                    '<role name="s" indexed="true"/></concept><concept name="B"/></catalogue>')
        catalogue = catalogue_from_xml(document)
        assert catalogue.entries == {
            "A": ConceptDefinition("A", (RoleSpec("r"), RoleSpec("s", True))),
            "B": ConceptDefinition("B")}
        assert type(catalogue.get("A").roles) is tuple

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


def _graph(body: str, root_attrs: str = ' version="1"') -> str:
    return f"<semanticgraph{root_attrs}>{body}</semanticgraph>"


def _catalogue(body: str, root_attrs: str = ' version="1"') -> str:
    return f"<catalogue{root_attrs}>{body}</catalogue>"


def _schema_reason(read, document) -> str:
    with pytest.raises(XmlSchemaError) as exc:
        read(document)
    return exc.value.reason


# Short texts of XML characters, often empty, and ids that are often valid.
_FIELDS = st.text(st.characters(blacklist_categories=("Cs",)).filter(_xml_char), max_size=3)
_IDS = _FIELDS | st.from_regex(r"[A-Za-z0-9_.-]{1,3}", fullmatch=True)


def _raises(make, error) -> bool:
    try:
        make()
    except error:
        return True
    return False


class TestRecordsAsConstructed:
    """The readers make each record field by field, with no call to its
    constructor: the records equal the constructors', and the readers refuse
    exactly the fields that the constructors refuse."""

    def test_graph_records_equal_the_constructors(self):
        g = from_xml(_graph('<concept id="c" name="X"><role name="r" target="e"/></concept>'
                            '<entity id="e" value="v"><class name="A"/><class name="B"/>'
                            '</entity><entity id="f" value="w"/><omitted id="o"/>'))
        assert g.nodes == {"c": ConceptNode("c", "X"), "e": EntityNode("e", "v", ("A", "B")),
                           "f": EntityNode("f", "w"), "o": OmittedNode("o")}
        assert [type(node.classes) for node in (g.nodes["e"], g.nodes["f"])] == [tuple, tuple]
        assert g.edges == [Edge("c", RoleLabel("r"), "e")]
        assert all(type(edge) is Edge for edge in g.edges)

    def test_catalogue_records_equal_the_constructors(self):
        catalogue = catalogue_from_xml(_catalogue(
            '<concept name="A"><role name="r"/><role name="s" indexed="true"/>'
            '<role name="t" indexed="false"/></concept><concept name="B"><role name="r"/>'
            '</concept>'))
        expected = {"A": ConceptDefinition("A", (RoleSpec("r"), RoleSpec("s", True),
                                                 RoleSpec("t"))),
                    "B": ConceptDefinition("B", (RoleSpec("r"),))}
        assert catalogue.entries == expected
        for name, definition in catalogue.entries.items():
            assert vars(definition) == vars(expected[name])
            assert definition.description is None
            assert [vars(role) for role in definition.roles] \
                == [vars(role) for role in expected[name].roles]

    @settings(max_examples=300)
    @given(_IDS, _FIELDS, _FIELDS, _FIELDS, _FIELDS)
    def test_readers_refuse_what_the_constructors_refuse(self, node_id, name, value, cls, role):
        e = xmlio._escape
        for construct, read, document in [
            (lambda: ConceptNode(node_id, name), from_xml,
             _graph(f'<concept id="{e(node_id)}" name="{e(name)}"/>')),
            (lambda: EntityNode(node_id, value, (cls,)), from_xml,
             _graph(f'<entity id="{e(node_id)}" value="{e(value)}">'
                    f'<class name="{e(cls)}"/></entity>')),
            (lambda: OmittedNode(node_id), from_xml, _graph(f'<omitted id="{e(node_id)}"/>')),
            (lambda: RoleLabel(role), from_xml,
             _graph(f'<concept id="c" name="X"><role name="{e(role)}" target="c"/></concept>')),
            (lambda: ConceptDefinition(name, (RoleSpec(role),)), catalogue_from_xml,
             _catalogue(f'<concept name="{e(name)}"><role name="{e(role)}"/></concept>')),
        ]:
            assert _raises(lambda: read(document), XmlSchemaError) \
                == _raises(construct, GraphError), document


class TestPinnedReading:
    """What the reader accepts and the exact reason it gives when it rejects."""

    @pytest.mark.parametrize("read,wrap,root", [(from_xml, _graph, "semanticgraph"),
                                                (catalogue_from_xml, _catalogue, "catalogue")])
    def test_namespaced_root_keeps_its_expanded_name(self, read, wrap, root):
        assert _schema_reason(read, wrap("", ' xmlns="u" version="1"')) == (
            f"unexpected root element '{{u}}{root}', expected '{root}'")

    @pytest.mark.parametrize("read,wrap,root", [(from_xml, _graph, "semanticgraph"),
                                                (catalogue_from_xml, _catalogue, "catalogue")])
    def test_namespaced_attribute_keeps_its_expanded_name(self, read, wrap, root):
        document = wrap("", ' version="1" xmlns:a="u" a:x="1"')
        assert _schema_reason(read, document) == f"unknown attribute '{{u}}x' on element '{root}'"
        # Sorted as ElementTree names them: 'zz' < '{u}x'.
        document = wrap("", ' version="1" xmlns:a="u" a:x="1" zz="1"')
        assert _schema_reason(read, document) == f"unknown attribute 'zz' on element '{root}'"

    def test_namespaced_child_keeps_its_expanded_name(self):
        document = _graph('<a:concept xmlns:a="u" id="a" name="X"/>')
        assert _schema_reason(from_xml, document) == (
            "unexpected element '{u}concept' inside 'semanticgraph'")

    # (reader, document with "{}" where the attributes go, element, first required attribute)
    ATTRIBUTE_CASES = [
        (from_xml, "<semanticgraph{}/>", "semanticgraph", "version"),
        (from_xml, _graph("<concept{}/>"), "concept", "id"),
        (from_xml, _graph("<entity{}/>"), "entity", "id"),
        (from_xml, _graph("<omitted{}/>"), "omitted", "id"),
        (from_xml, _graph('<concept id="a" name="X"><role{}/></concept>'), "role", "name"),
        (from_xml, _graph('<entity id="a" value="v"><class{}/></entity>'), "class", "name"),
        (catalogue_from_xml, "<catalogue{}/>", "catalogue", "version"),
        (catalogue_from_xml, _catalogue("<concept{}/>"), "concept", "name"),
        (catalogue_from_xml, _catalogue('<concept name="A"><role{}/></concept>'), "role", "name"),
    ]

    @pytest.mark.parametrize("read,template,element,required", ATTRIBUTE_CASES,
                             ids=lambda value: value if isinstance(value, str) else "")
    def test_attribute_errors_report_first_unknown_then_first_missing(self, read, template,
                                                                      element, required):
        both = template.format(' zz="1" yy="1"')
        assert _schema_reason(read, both) == f"unknown attribute 'yy' on element '{element}'"
        assert _schema_reason(read, template.format("")) == (
            f"missing attribute '{required}' on element '{element}'")

    # A misspelt attribute name leaves the attribute count right: one unknown
    # and one missing. The unknown one is still reported before any check of
    # the element's values, ids or targets.
    @pytest.mark.parametrize("read,document,reason", [
        (from_xml, _graph('<concept id="a" name="X"/><concept id="a" nme="Y"/>'),
         "unknown attribute 'nme' on element 'concept'"),
        (from_xml, _graph('<concept id="a" name="X"/><entity id="a" vale="v"/>'),
         "unknown attribute 'vale' on element 'entity'"),
        (from_xml, _graph('<concept id="b c" nme="Y"/>'),
         "unknown attribute 'nme' on element 'concept'"),
        (from_xml, _graph('<concept id="a" name="X"><role name="" trget="a"/></concept>'),
         "unknown attribute 'trget' on element 'role'"),
        (from_xml, _graph('<concept id="a" name="X"><role name="r" index="0" trget="a"/>'
                          '</concept>'), "unknown attribute 'trget' on element 'role'"),
        (catalogue_from_xml,
         _catalogue('<concept name="A"><role nme="r" indexed="maybe"/></concept>'),
         "unknown attribute 'nme' on element 'role'"),
    ], ids=["duplicate-concept", "duplicate-entity", "bad-id", "empty-role-name", "bad-index",
            "catalogue-indexed"])
    def test_misspelt_attribute_wins_over_value_checks(self, read, document, reason):
        assert _schema_reason(read, document) == reason

    # (reader, document with "{}" where text goes, element holding the text)
    TEXT_CASES = [
        (from_xml, _graph("{}"), "semanticgraph"),
        (from_xml, _graph('<omitted id="o"/>{}'), "semanticgraph"),
        (from_xml, _graph('<concept id="a" name="X">{}</concept>'), "concept"),
        (from_xml, _graph('<concept id="a" name="X"><role name="r" target="a"/>{}</concept>'),
         "concept"),
        (from_xml, _graph('<entity id="a" value="v">{}</entity>'), "entity"),
        (from_xml, _graph('<omitted id="a">{}</omitted>'), "omitted"),
        (from_xml, _graph('<concept id="a" name="X"><role name="r" target="a">{}</role>'
                          '</concept>'), "role"),
        (from_xml, _graph('<entity id="a" value="v"><class name="k">{}</class></entity>'),
         "class"),
        (catalogue_from_xml, _catalogue("{}"), "catalogue"),
        (catalogue_from_xml, _catalogue('<concept name="A">{}</concept>'), "concept"),
        (catalogue_from_xml, _catalogue('<concept name="A"><role name="r">{}</role></concept>'),
         "role"),
    ]

    @pytest.mark.parametrize("text", ["junk", "<![CDATA[x]]>", " &#65; "])
    @pytest.mark.parametrize("read,template,element", TEXT_CASES,
                             ids=lambda value: value if isinstance(value, str) else "")
    def test_text_content_is_rejected(self, read, template, element, text):
        assert _schema_reason(read, template.format(text)) == (
            f"unexpected text content in element '{element}'")

    @pytest.mark.parametrize("text", ["&#160;", "\n\t \r\n", "<!-- note -->", "<?pi data?>",
                                      "<![CDATA[ \n ]]>", " <!-- a --> <?b?> "])
    @pytest.mark.parametrize("read,template,element", TEXT_CASES,
                             ids=lambda value: value if isinstance(value, str) else "")
    def test_white_space_comments_and_pis_are_accepted(self, read, template, element, text):
        read(template.format(text))

    def test_duplicate_id_rejected(self):
        document = _graph('<concept id="a" name="X"/><entity id="a" value="v"/>')
        assert _schema_reason(from_xml, document) == "duplicate node id 'a'"

    def test_role_target_defined_later_resolves(self):
        g = from_xml(_graph('<concept id="a" name="X"><role name="r" target="z"/></concept>'
                            '<omitted id="z"/>'))
        assert g.edges == [Edge("a", RoleLabel("r"), "z")]

    @pytest.mark.parametrize("read,wrap", [(from_xml, _graph), (catalogue_from_xml, _catalogue)])
    def test_junk_after_document_element_is_a_syntax_error(self, read, wrap):
        with pytest.raises(XmlSyntaxError) as exc:
            read(wrap("") + "\n<x/>")
        assert exc.value.reason == "malformed XML: junk after document element"
        assert (exc.value.line, exc.value.column) == (2, 1)

    @pytest.mark.parametrize("read,wrap", [(from_xml, _graph), (catalogue_from_xml, _catalogue)])
    def test_lone_surrogate_is_a_syntax_error(self, read, wrap):
        with pytest.raises(XmlSyntaxError) as exc:
            read("\ud800")
        assert (exc.value.line, exc.value.column) == (1, 1)
        with pytest.raises(XmlSyntaxError) as exc:
            read(wrap('\n<concept name="a\udc80"/>'))
        assert exc.value.reason == "malformed XML: lone surrogate '\\udc80'"
        assert (exc.value.line, exc.value.column) == (2, 17)

    @pytest.mark.parametrize("before,location", [
        ("<a>\r", (2, 1)),
        ("<a>\r\n", (2, 1)),
        ("<a>\n\r", (3, 1)),
        ("<a>\r\r\nb", (3, 2)),
        ('<semanticgraph version="1">' + " " * 70_000 + "\r", (2, 1)),
        ('<semanticgraph version="1">' + " " * 70_000, (1, 70_028)),
    ], ids=["cr", "crlf", "lf-cr", "cr-crlf", "cr-past-64k", "past-64k"])
    def test_lone_surrogate_is_located_as_expat_counts_lines(self, before, location):
        with pytest.raises(XmlSyntaxError) as exc:
            from_xml(before + "\ud800")
        assert exc.value.reason == "malformed XML: lone surrogate '\\ud800'"
        assert (exc.value.line, exc.value.column) == location
        # Expat places markup at fault at the same place.
        with pytest.raises(XmlSyntaxError) as exc:
            from_xml(before + "&")
        assert (exc.value.line, exc.value.column) == location

    def test_encoding_declaration_is_ignored_for_text_input(self):
        g = from_xml('<?xml version="1.0" encoding="ISO-8859-1"?>'
                     + _graph('<concept id="a" name="Café"/>'))
        assert g.nodes["a"].name == "Café"
        catalogue = catalogue_from_xml('<?xml version="1.0" encoding="ISO-8859-1"?>'
                                       + _catalogue('<concept name="Café"/>'))
        assert "Café" in catalogue

    @pytest.mark.parametrize("body,reason", [
        ('<concept name="A"/><concept name="A"/>', "duplicate concept 'A' in catalogue"),
        ('<concept name="A"><role name="r"/><role name="r"/></concept>',
         "role 'r' declared twice in concept 'A'"),
        ('<concept name="A"><class name="r"/></concept>',
         "unexpected element 'class' inside catalogue concept"),
        ('<concept name="A"><role name="r"><role name="s"/></role></concept>',
         "element 'role' may not have children"),
        ('<role name="r"/>', "unexpected element 'role' inside 'catalogue'"),
        ('<concept name=""/>', "empty concept name in catalogue"),
        ('<concept name="A"><role name=""/></concept>', "empty role name in concept 'A'"),
        ('<concept name="A"><role name="r" indexed="1"/></concept>',
         "indexed must be 'true' or 'false', got '1'"),
    ])
    def test_catalogue_reasons(self, body, reason):
        assert _schema_reason(catalogue_from_xml, _catalogue(body)) == reason

    def test_catalogue_version_checked(self):
        assert _schema_reason(catalogue_from_xml, _catalogue("", ' version="2"')) == (
            "unsupported catalogue version '2'")


CATALOGUE_SEED = ('<catalogue version="1">\n'
                  '  <concept name="Bottom">\n'
                  '    <role name="Container"/>\n'
                  '    <role name="part" indexed="true"/>\n'
                  '  </concept>\n'
                  '  <concept name="Well"/>\n'
                  '</catalogue>\n')


_ORACLE_READERS = (xml_oracle.from_xml, xml_oracle.catalogue_from_xml)


def _outcome(read, text):
    try:
        return read(text)
    except UnicodeEncodeError as exc:
        # The oracle lets a lone surrogate fail to encode before any parse;
        # the streaming reader reports it as malformed XML.
        return XmlSyntaxError(exc.reason) if read in _ORACLE_READERS else exc
    except Exception as exc:
        return exc


def _assert_same_graph(new, old):
    assert list(new.nodes.items()) == list(old.nodes.items())
    assert new.edges == old.edges
    if not validate(old):
        assert to_xml(new) == to_xml(old)


class TestAgainstTreeReader:
    """The streaming reader against the ElementTree reader it replaced."""

    @pytest.mark.parametrize("seed", [SEEDS["xml"], _base_document()], ids=["fuzz", "base"])
    def test_mutated_graphs_agree(self, seed):
        @settings(max_examples=400)
        @given(mutated(seed))
        @example(seed.replace("\n", "\ud800\n", 2))
        def check(text):
            new, old = _outcome(from_xml, text), _outcome(xml_oracle.from_xml, text)
            assert type(new) is type(old), (new, old)
            if not isinstance(old, Exception):
                _assert_same_graph(new, old)

        check()

    def test_mutated_catalogues_agree(self):
        @settings(max_examples=400)
        @given(mutated(CATALOGUE_SEED))
        @example(CATALOGUE_SEED.replace("\n", "\ud800\n", 2))
        def check(text):
            new = _outcome(catalogue_from_xml, text)
            old = _outcome(xml_oracle.catalogue_from_xml, text)
            assert type(new) is type(old), (new, old)
            if not isinstance(old, Exception):
                assert list(new.entries.items()) == list(old.entries.items())
                assert catalogue_to_xml(new) == catalogue_to_xml(old)

        check()

    @pytest.mark.parametrize("description,document", list(_mutations()),
                             ids=lambda value: value if isinstance(value, str) else "")
    def test_single_faults_give_the_same_reason(self, description, document):
        new, old = _outcome(from_xml, document), _outcome(xml_oracle.from_xml, document)
        assert type(new) is type(old)
        assert new.reason == old.reason
        assert new.line is not None and new.column is not None


class TestSchemaErrorLocations:
    @pytest.mark.parametrize("body,location", [
        ('\n  <concept id="a" name=""/>', (2, 3)),
        ('\n<omitted id="a">\n  <class name="k"/></omitted>', (3, 3)),
        ('<entity id="a" value="v">\n\n  x  \n</entity>', (1, 28)),
        ('\n<concept id="a" name="X">\n<role name="r" target="a"/>\n'
         ' <role name="r" target="zz"/>\n</concept>', (4, 2)),
    ], ids=["attribute", "child", "text", "target"])
    def test_start_tag_at_fault(self, body, location):
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(_graph(body))
        assert (exc.value.line, exc.value.column) == location
        assert str(exc.value).endswith(f" (line {location[0]}, column {location[1]})")

    # The reader keeps no location per role: an unresolved target is located
    # by finding the role start tag of its edge in a second parse.
    @pytest.mark.parametrize("body,target,location", [
        ('<concept id="a" name="X">\n<role name="r" target="b"/>\n'
         '<role name="s" target="z"/></concept>\n<omitted id="b"/>\n'
         '<concept id="c" name="Y"><role name="t" target="y"/></concept>', "z", (3, 1)),
        ('<entity id="e" value="v"><class name="k"/><role name="r" target="o"/></entity>\n'
         '<omitted id="o"><role name="r" target="e"/><role name="s" target="c"/></omitted>\n'
         '<concept id="c" name="X"><role name="r" target="e"/> <role name="s" target="q"/>'
         '</concept>', "q", (3, 54)),
        ('<concept id="c" name="X"><role name="r" target="c"/></concept>\n'
         '<omitted id="o"><role name="s" target="q"/></omitted>'
         '<entity id="q2" value="v"/>', "q", (2, 17)),
    ], ids=["first-of-several", "under-entity-and-omitted", "under-omitted"])
    def test_unresolved_target_at_its_role(self, body, target, location):
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(_graph(body))
        assert exc.value.reason == f"role target references unknown id '{target}'"
        assert (exc.value.line, exc.value.column) == location

    # Stray text is located at the start tag of the element that holds it,
    # which a second parse finds: the reader keeps no location per element.
    @pytest.mark.parametrize("read,document,element,location", [
        (from_xml, _graph('\n<concept id="a" name="X">\n  <role name="r" target="a"/>\n'
                          '  <role name="s" target="a"/>\n  <role name="t" target="a">x</role>\n'
                          '</concept>'), "role", (5, 3)),
        (from_xml, _graph('\n<entity id="e" value="v">\n  <class name="k"/>\n</entity>\n'
                          '  <concept id="a" name="X"><role name="r" target="e"/>\n'
                          '  junk</concept>'), "concept", (5, 3)),
        (catalogue_from_xml, _catalogue('\n<concept name="A">\n  <role name="r"/>\n'
                                        '    <role name="s">x</role>\n</concept>'),
         "role", (4, 5)),
    ], ids=["role-after-siblings", "after-a-child", "catalogue-role"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_stray_text_at_the_start_tag_that_holds_it(self, read, document, element, location,
                                                       newline):
        with pytest.raises(XmlSchemaError) as exc:
            read(document.replace("\n", newline))
        assert exc.value.reason == f"unexpected text content in element '{element}'"
        assert (exc.value.line, exc.value.column) == location

    @pytest.mark.parametrize("document", ['\n<graph version="1"/>',
                                          '<semanticgraph version="2"/>'])
    def test_root_at_fault(self, document):
        with pytest.raises(XmlSchemaError) as exc:
            from_xml(document)
        assert (exc.value.line, exc.value.column) == (document.count("\n") + 1, 1)

    def test_catalogue_start_tag_at_fault(self):
        document = _catalogue('\n<concept name="A">\n  <role name="r"/><role name="r"/></concept>')
        with pytest.raises(XmlSchemaError) as exc:
            catalogue_from_xml(document)
        assert (exc.value.line, exc.value.column) == (3, 19)

    def test_first_fault_in_the_text_is_reported(self):
        # The tree reader checked a parent's text before its children.
        document = _graph('<conzept/>junk')
        assert _schema_reason(from_xml, document) == (
            "unexpected element 'conzept' inside 'semanticgraph'")
        assert _schema_reason(xml_oracle.from_xml, document) == (
            "unexpected text content in element 'semanticgraph'")

    @pytest.mark.parametrize("read,wrap", [(from_xml, _graph), (catalogue_from_xml, _catalogue)])
    def test_malformed_markup_wins_over_an_earlier_schema_fault(self, read, wrap):
        with pytest.raises(XmlSyntaxError) as exc:
            read(wrap("<unknown/>\n<unclosed>"))
        assert exc.value.reason == "malformed XML: mismatched tag"


def test_no_element_tree_in_the_package():
    package = Path(__file__).parent.parent / "src" / "semgraph"
    assert [path.name for path in sorted(package.glob("*.py"))
            if "xml.etree" in path.read_text(encoding="utf-8")] == []
