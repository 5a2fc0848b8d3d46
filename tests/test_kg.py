import pytest
from hypothesis import given, settings, strategies as st

import turtle_oracle
from semgraph import kg, model
from semgraph.kg import (
    TurtleError,
    _tokenize,
    events_to_graph,
    parse_turtle,
    split_events,
)
from semgraph.model import ConceptNode, EntityNode, validate
from semgraph.xmlio import to_xml
from helpers import in_edges, top_level_events
from test_fuzz import SEEDS, mutated

PREFIXES = """\
@prefix wd:   <http://www.wikidata.org/entity/> .
@prefix sem:  <http://semanticweb.cs.vu.nl/2009/11/sem/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex:   <http://example.org/> .
"""

GOLDEN = PREFIXES + """
wd:Q1073320 a sem:Event ;
    rdfs:label "Storming of the Bastille" ;
    sem:hasTimeStamp "1789-07-14" ;
    ex:place wd:P9 .

wd:Q2 a sem:Event ;
    rdfs:label "March on Versailles" ;
    sem:subEventOf wd:Q1073320 .

wd:Q3 a sem:Event ;
    rdfs:label "Women's March" ;
    sem:subEventOf wd:Q1073320 .
"""

EX = "@prefix ex: <http://example.org/> .\n"

# A character between a predicate and its object, and the error it gives.
STRAY_REASONS = {
    ">": "unexpected character '>'",
    "\v": "unexpected character '\\x0b'",
    "\f": "unexpected character '\\x0c'",
    "\x85": "unexpected character '\\x85'",
    "\xa0": "unexpected character '\\xa0'",
    "^": "unexpected character '^'",
    "<": "unterminated IRI",
    '"': "unterminated string literal",
    "[": "unsupported construct: blank nodes",
    "]": "unsupported construct: blank nodes",
    "(": "unsupported construct: collections",
    ")": "unsupported construct: collections",
    "{": "unsupported construct: graph blocks",
    "}": "unsupported construct: graph blocks",
}


class TestParseTurtle:
    def test_type_keyword_expansion(self):
        store = parse_turtle("@prefix sem: <http://x/> .\n@prefix wd: <http://w/> .\n"
                             "wd:Q1 a sem:Event .\n")
        assert len(store.triples) == 1
        s, p, o = store.triples[0]
        assert (s.text, p.text, o.text) == ("wd:Q1", "rdf:type", "sem:Event")
        assert s.kind == p.kind == o.kind == "resource"

    def test_predicate_list_shares_subject(self):
        store = parse_turtle(PREFIXES +
                             'wd:Q1 rdfs:label "A" ; sem:subEventOf wd:Q2 .\n')
        assert len(store.triples) == 2
        assert store.triples[0][0] == store.triples[1][0]
        assert store.triples[0][2].kind == "literal"

    def test_object_list(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 rdfs:label "A", "B" .\n')
        assert [t[2].text for t in store.triples] == ["A", "B"]

    def test_full_iris(self):
        store = parse_turtle("<http://a/s> <http://a/p> <http://a/o> .\n")
        assert store.triples[0][0].text == "http://a/s"

    def test_language_tag_and_datatype(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 rdfs:label "prise"@fr .\n'
                                        'wd:Q1 ex:n "4"^^ex:int .\n')
        assert store.triples[0][2].lang == "fr"
        assert store.triples[1][2].datatype == "ex:int"

    def test_comments_and_whitespace_ignored(self):
        store = parse_turtle(PREFIXES +
                             "# leading comment\nwd:Q1   a\tsem:Event . # trailing\n")
        assert len(store.triples) == 1

    def test_string_escapes(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 rdfs:label "a\\"b\\\\c\\nd" .\n')
        assert store.triples[0][2].text == 'a"b\\c\nd'

    def test_unknown_prefix_rejected(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle("zz:Q1 a zz:Event .\n")
        assert "unknown prefix" in str(exc.value)

    @pytest.mark.parametrize("obj", ['""', '""@en', '""^^ex:int'])
    def test_empty_literal_rejected_at_its_quote(self, obj):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + f'wd:Q1 a sem:Event ;\n  rdfs:label "a", {obj} .\n')
        assert exc.value.reason == "empty string literal"
        assert (exc.value.line, exc.value.column) == (6, 19)

    def test_blank_node_unsupported(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + "wd:Q1 ex:p [ ] .\n")
        assert "unsupported construct" in str(exc.value)

    def test_blank_node_label_unsupported(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + "_:b ex:p wd:Q1 .\n")
        assert "unsupported construct" in str(exc.value)

    def test_collection_unsupported(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + "wd:Q1 ex:p ( wd:Q2 wd:Q3 ) .\n")
        assert "unsupported construct" in str(exc.value)

    def test_syntax_error_located(self):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + "\nwd:Q1 42 wd:Q2 .\n")
        assert exc.value.line == 6
        assert exc.value.column is not None

    @pytest.mark.parametrize("stray", list(STRAY_REASONS))
    def test_stray_character_located(self, stray):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(PREFIXES + f"wd:Q1 ex:p{stray}wd:Q2 .\n")
        assert exc.value.reason == STRAY_REASONS[stray]
        assert (exc.value.line, exc.value.column) == (5, 11)

    @pytest.mark.parametrize("text,reason,location", [
        ("ex:a ex:p <> .", "empty IRI", (1, 11)),
        ('ex:a ex:p "abc\\', "unterminated string literal", (1, 11)),
        ('ex:a ex:p """abc""" .', "unsupported construct: triple-quoted strings", (1, 11)),
        ('ex:a ex:p "a"@ .', "malformed '@' token", (1, 14)),
        ("@9prefix ex: <http://x> .", "malformed '@' token", (1, 1)),
        ("ex:a ex:p ex:b..", "unexpected '.'", (1, 16)),
        ("# c\n\tex:a ex:p\v", "unexpected character '\\x0b'", (2, 11)),
        ("@base <http://x/> .", "unknown directive '@base'", (1, 1)),
        ("@prefix ex <http://x/> .", "expected a prefix name like 'ex:'", (1, 9)),
        ("@prefix ex: ex:a .", "expected an IRI, got 'ex:a'", (1, 13)),
        ("@prefix ex: <http://x/> ex:a", "expected '.', got 'ex:a'", (1, 25)),
        ("@prefix", "unexpected end of input, expected a prefix name", (1, 8)),
        ("@prefix ex:", "unexpected end of input, expected an IRI", (1, 12)),
        ("@prefix ex: <http://x/>", "unexpected end of input, expected '.'", (1, 24)),
        (EX + "ex:s", "unexpected end of input, expected a predicate", (2, 5)),
        (EX + "ex:s ex:p", "unexpected end of input, expected an object", (2, 10)),
        (EX + 'ex:s ex:p "x"^^', "unexpected end of input, expected a datatype", (2, 16)),
        (EX + "ex:s ex:p ex:o", "unexpected end of input, expected ',', ';' or '.'", (2, 15)),
        (EX + "ex:s ex:p ex:o ;", "unexpected end of input, expected a predicate", (2, 17)),
        (EX + "ex:s ex:p , .", "expected a resource, got ','", (2, 11)),
        (EX + '"s" ex:p ex:o .', "expected a resource, got 's'", (2, 1)),
        (EX + 'ex:s ex:p "x"^^"y" .', "expected a resource, got 'y'", (2, 16)),
        (EX + "ex:s ; ex:p ex:o .", "expected a resource, got ';'", (2, 6)),
        (EX + "ex:s ex:p true .", "unsupported construct: boolean literals", (2, 11)),
        (EX + "a ex:p ex:o .", "'a' is not a prefixed name or IRI", (2, 1)),
        (EX + "_:b ex:p ex:o .", "unsupported construct: blank node labels", (2, 1)),
        (EX + "ex:s zz:p ex:o .", "unknown prefix 'zz:'", (2, 6)),
        (EX + "ex:s ex:p ex:o ex:q .", "expected ',', ';' or '.', got 'ex:q'", (2, 16)),
        (EX + 'ex:s ex:p "x"@prefix ex: <http://y/> .',
         "expected ',', ';' or '.', got '@prefix'", (2, 14)),
        (EX + "ex:s ex:p 4x .", "'4x' is not a prefixed name or IRI", (2, 11)),
        (EX + "ex:s ex:p ex:o , false .", "unsupported construct: boolean literals", (2, 18)),
        (EX + "ex:s ex:p 42 .", "unsupported construct: numeric literals", (2, 11)),
        (EX + "ex:s ex:p 42.", "unsupported construct: numeric literals", (2, 11)),
        (EX + "ex:s ex:p ex:o ;\n  ex:q -1.5 .", "unsupported construct: numeric literals", (3, 8)),
        (EX + "ex:s ex:p 1e3 .", "unsupported construct: numeric literals", (2, 11)),
        (EX + "ex:s 42 ex:o .", "'42' is not a prefixed name or IRI", (2, 6)),
    ])
    def test_error_reason_and_location(self, text, reason, location):
        with pytest.raises(TurtleError) as exc:
            parse_turtle(text)
        assert exc.value.reason == reason
        assert (exc.value.line, exc.value.column) == location

    @pytest.mark.parametrize("statement,objects", [
        ("ex:s ex:p ex:o ; .", ["ex:o"]),
        ("ex:s ex:p ex:o ; ; .", ["ex:o"]),
        ("ex:s ex:p ex:o ;; ex:q ex:r .", ["ex:o", "ex:r"]),
        ("ex:s ex:p ex:o ; ;\n ex:q ex:r ; ; ex:t ex:u ;; .", ["ex:o", "ex:r", "ex:u"]),
    ])
    def test_empty_semicolon_entries_are_skipped(self, statement, objects):
        store = parse_turtle(EX + statement)
        assert [(s.text, o.text) for s, _, o in store.triples] == [("ex:s", o) for o in objects]

    def test_iri_may_span_a_newline(self):
        store = parse_turtle("<http://a/\ns> <http://a/p> <http://a/o> .\n")
        assert store.triples[0][0].text == "http://a/\ns"

    def test_word_dots(self):
        store = parse_turtle(PREFIXES + "wd:Q1 ex:p wd:a.b.\nwd:Q2 ex:p wd:c.\n")
        assert [t[2].text for t in store.triples] == ["wd:a.b", "wd:c"]
        assert store.triples[1][0].text == "wd:Q2"

    def test_unknown_escape_keeps_its_character(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 rdfs:label "a\\qb\\tc" .\n')
        assert store.triples[0][2].text == "aqb\tc"

    def test_bare_word_rejected(self):
        with pytest.raises(TurtleError):
            parse_turtle(PREFIXES + "wd:Q1 ex:p true .\n")

    def test_missing_terminator_rejected(self):
        with pytest.raises(TurtleError):
            parse_turtle(PREFIXES + "wd:Q1 a sem:Event")


def event_roles(graph, name: str) -> list[tuple[str, str]]:
    """The out-edges of the event whose `id` leaf holds ``name``, in order, as
    (label, target): an entity's value, or a concept's name with the value of
    the leaf its first out-edge reaches."""
    [event] = [e.source for e in graph.edges if graph.nodes[e.source].name == "sem:Event"
               and isinstance(graph.nodes[e.target], EntityNode)
               and graph.nodes[e.target].value == name]
    roles = []
    for edge in graph.out_edges(event):
        target = graph.nodes[edge.target]
        if isinstance(target, ConceptNode):
            leaf = graph.nodes[graph.out_edges(edge.target)[0].target]
            roles.append((str(edge.label), f"{target.name}({leaf.value})"))
        else:
            roles.append((str(edge.label), target.value))
    return roles


class TestEventsToGraph:
    def test_label_example(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 a sem:Event ; rdfs:label "L" .\n')
        g = events_to_graph(store)
        concepts = [n for n in g.nodes.values() if isinstance(n, ConceptNode)]
        entities = [n for n in g.nodes.values() if isinstance(n, EntityNode)]
        assert len(concepts) == 1 and concepts[0].name == "sem:Event"
        assert sorted(e.value for e in entities) == ["L", "wd:Q1"]
        assert len(g.edges) == 2
        labels = {str(e.label) for e in g.edges}
        assert labels == {"id", "rdfs:label"}

    def test_subevent_direction_inverted(self):
        store = parse_turtle(PREFIXES +
                             "wd:Q1 a sem:Event .\n"
                             "wd:Q2 a sem:Event ; sem:subEventOf wd:Q1 .\n")
        g = events_to_graph(store)
        subevent_edges = [e for e in g.edges if e.label.name == "subEvent"]
        assert len(subevent_edges) == 1
        edge = subevent_edges[0]
        assert edge.label.index == 1
        assert g.nodes[edge.source].name == "sem:Event"
        assert g.nodes[edge.target].name == "sem:Event"
        # the edge leaves the encompassing event (the one with id wd:Q1)
        id_edges = {e.source: g.nodes[e.target].value
                    for e in g.edges if e.label.name == "id"}
        assert id_edges[edge.source] == "wd:Q1"
        assert id_edges[edge.target] == "wd:Q2"

    def test_resource_property_gets_id_leaf(self):
        store = parse_turtle(PREFIXES + "wd:Q1 a sem:Event ; ex:place wd:P9 .\n")
        g = events_to_graph(store)
        place = [n for n in g.nodes.values()
                 if isinstance(n, ConceptNode) and n.name == "ex:place"]
        assert len(place) == 1
        attach = [e for e in g.edges if e.target == place[0].id]
        assert len(attach) == 1 and str(attach[0].label) == "ex:place"
        leaf = g.out_edges(place[0].id)
        assert len(leaf) == 1 and str(leaf[0].label) == "id"
        assert g.nodes[leaf[0].target].value == "wd:P9"

    def test_literal_property_gets_value_leaf(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 a sem:Event ; ex:note "N" .\n')
        g = events_to_graph(store)
        leaf = [e for e in g.edges if str(e.label) == "value"]
        assert len(leaf) == 1
        assert g.nodes[leaf[0].target].value == "N"

    def test_multiple_labels_indexed(self):
        store = parse_turtle(PREFIXES + 'wd:Q1 a sem:Event ; rdfs:label "A", "B" .\n')
        g = events_to_graph(store)
        labels = [e for e in g.edges if e.label.name == "rdfs:label"]
        assert [e.label.index for e in labels] == [1, 2]
        assert [g.nodes[e.target].value for e in labels] == ["A", "B"]

    # A role an event gets from two sources is indexed 1..k in plan order: the
    # event's own `id`, its label literals and its sub-events come before the
    # predicates that collide with them.
    def test_label_literal_and_label_resources_collide(self):
        g = events_to_graph(parse_turtle(
            PREFIXES + 'ex:e a sem:Event ; rdfs:label "x" ; rdfs:label ex:r1, ex:r2 .\n'))
        assert validate(g) == []
        assert event_roles(g, "ex:e") == [
            ("id", "ex:e"), ("rdfs:label[1]", "x"),
            ("rdfs:label[2]", "rdfs:label(ex:r1)"), ("rdfs:label[3]", "rdfs:label(ex:r2)")]

    def test_id_predicates_collide_with_the_id_leaf(self):
        g = events_to_graph(parse_turtle(
            PREFIXES + 'ex:e a sem:Event ; <id> ex:a ; <id> "b" .\n'))
        assert validate(g) == []
        assert event_roles(g, "ex:e") == [
            ("id[1]", "ex:e"), ("id[2]", "id(ex:a)"), ("id[3]", "id(b)")]

    def test_subevent_predicate_follows_the_real_subevent(self):
        g = events_to_graph(parse_turtle(
            PREFIXES + 'ex:e a sem:Event ; <subEvent> "s" .\n'
            "ex:c a sem:Event ; sem:subEventOf ex:e .\n"))
        assert validate(g) == []
        assert event_roles(g, "ex:e") == [
            ("id", "ex:e"), ("subEvent[1]", "sem:Event(ex:c)"), ("subEvent[2]", "subEvent(s)")]

    def test_non_event_subject_forms_detached_island(self):
        store = parse_turtle(PREFIXES + 'wd:P9 rdfs:label "Paris" .\n')
        g = events_to_graph(store)
        assert len(g.nodes) == 2 and len(g.edges) == 1
        concept = [n for n in g.nodes.values() if isinstance(n, ConceptNode)][0]
        assert concept.name == "rdfs:label"
        assert not in_edges(g, concept.id)
        assert str(g.edges[0].label) == "value"

    def test_empty_store_empty_graph(self):
        g = events_to_graph(parse_turtle(""))
        assert not g.nodes and not g.edges

    def test_golden_structure(self):
        g = events_to_graph(parse_turtle(GOLDEN))
        assert validate(g) == []
        assert len(g.nodes) == 13
        assert len(g.edges) == 12
        events = {e.source: g.nodes[e.target].value
                  for e in g.edges if e.label.name == "id"
                  and g.nodes[e.source].name == "sem:Event"}
        assert sorted(events.values()) == ["wd:Q1073320", "wd:Q2", "wd:Q3"]
        top = [nid for nid, name in events.items() if name == "wd:Q1073320"][0]
        subevents = [e for e in g.edges if e.source == top and e.label.name == "subEvent"]
        assert [e.label.index for e in subevents] == [1, 2]
        assert [events[e.target] for e in subevents] == ["wd:Q2", "wd:Q3"]

    @pytest.mark.parametrize("text", [
        "", GOLDEN, GOLDEN + 'wd:P9 rdfs:label "Paris" ; ex:q "x" .\nex:r ex:q wd:P9 .\n',
    ], ids=["empty", "golden", "golden-and-islands"])
    def test_all_edges_are_inserted_in_one_plan(self, monkeypatch, text):
        plans = []

        def add_planned_edges(graph, planned):
            plans.append(len(planned))
            model.add_planned_edges(graph, planned)

        monkeypatch.setattr(kg, "add_planned_edges", add_planned_edges)
        g = events_to_graph(parse_turtle(text))
        assert plans == [len(g.edges)]

    def test_comment_and_whitespace_permutation_identical_xml(self):
        shuffled = GOLDEN.replace(" ;\n    ", " ;  # reordered whitespace\n  ")
        shuffled = "# header comment\n" + shuffled.replace("\n\n", "\n#\n\n\n")
        assert to_xml(events_to_graph(parse_turtle(shuffled))) == \
            to_xml(events_to_graph(parse_turtle(GOLDEN)))

    def test_every_literal_reachable_via_value_or_label_edge(self):
        store = parse_turtle(GOLDEN)
        g = events_to_graph(store)
        literals = [o.text for _, _, o in store.triples if o.kind == "literal"]
        leaf_values = [g.nodes[e.target].value for e in g.edges
                       if e.label.name in ("value", "rdfs:label")]
        assert sorted(literals) == sorted(leaf_values)

    def test_output_always_lax_valid(self):
        tricky = PREFIXES + """
wd:Q1 a sem:Event ; ex:p wd:A ; ex:p wd:B ; ex:p "lit" .
wd:Q9 ex:q "x" ; ex:q "y" .
"""
        g = events_to_graph(parse_turtle(tricky))
        assert validate(g) == []
        attach = [e for e in g.edges if e.label.name == "ex:p"]
        assert [e.label.index for e in attach] == [1, 2, 3]


class TestSplitEvents:
    def test_top_level_detection(self):
        assert top_level_events(parse_turtle(GOLDEN)) == ["wd:Q1073320"]

    def test_split_keeps_subevent_closure(self):
        two_tops = GOLDEN + "\nwd:Q7 a sem:Event ; rdfs:label \"Other\" .\n"
        stores = split_events(parse_turtle(two_tops))
        assert len(stores) == 2
        first, second = (events_to_graph(s) for s in stores)
        assert len(first.nodes) == 13
        ids = {g.nodes[e.target].value for g in (second,)
               for e in g.edges if e.label.name == "id"}
        assert ids == {"wd:Q7"}

    def test_islands_dropped_when_splitting(self):
        text = GOLDEN + "\nwd:P9 rdfs:label \"Paris\" .\n"
        stores = split_events(parse_turtle(text))
        assert len(stores) == 1
        assert all(t[0].text != "wd:P9" for t in stores[0].triples)

    def test_shared_subevent_goes_to_both_stores(self):
        text = PREFIXES + """
ex:a a sem:Event .
ex:b a sem:Event .
ex:s a sem:Event ; sem:subEventOf ex:a , ex:b ; ex:p "shared" .
"""
        store = parse_turtle(text)
        assert top_level_events(store) == ["ex:a", "ex:b"]
        first, second = split_events(store)
        assert first.triples == [t for t in store.triples if t[0].text in ("ex:a", "ex:s")]
        assert second.triples == [t for t in store.triples if t[0].text in ("ex:b", "ex:s")]

    def test_subevent_cycle(self):
        cycle = PREFIXES + """
ex:a a sem:Event ; sem:subEventOf ex:b .
ex:b a sem:Event ; sem:subEventOf ex:a .
"""
        assert top_level_events(parse_turtle(cycle)) == []
        assert split_events(parse_turtle(cycle)) == []
        store = parse_turtle(cycle + "ex:top a sem:Event .\nex:a sem:subEventOf ex:top .\n")
        assert top_level_events(store) == ["ex:top"]
        [only] = split_events(store)
        assert only.triples == store.triples
        g = events_to_graph(store)
        assert len([e for e in g.edges if e.label.name == "subEvent"]) == 3
        assert validate(g) == []

    def test_duplicate_typing_triples(self):
        text = PREFIXES + "ex:a a sem:Event .\nex:a a sem:Event ; rdfs:label \"A\" .\n"
        store = parse_turtle(text)
        assert top_level_events(store) == ["ex:a"]
        [only] = split_events(store)
        assert only.triples == store.triples
        g = events_to_graph(store)
        assert [n.name for n in g.nodes.values() if isinstance(n, ConceptNode)] == ["sem:Event"]
        assert validate(g) == []

    def test_interleaved_trees_keep_document_order(self):
        text = PREFIXES + """
ex:a a sem:Event .
ex:b a sem:Event .
ex:a ex:p "1" .
ex:b2 sem:subEventOf ex:b ; a sem:Event .
ex:a2 a sem:Event ; ex:p "2" .
ex:b ex:p "3" .
ex:a2 sem:subEventOf ex:a .
ex:b2 ex:p "4" .
ex:a ex:p "5" .
"""
        store = parse_turtle(text)
        first, second = split_events(store)
        assert first.triples == [t for t in store.triples if t[0].text in ("ex:a", "ex:a2")]
        assert second.triples == [t for t in store.triples if t[0].text in ("ex:b", "ex:b2")]
        assert first.prefixes == second.prefixes == store.prefixes
        assert first.prefixes is not store.prefixes


def _lexed(tokenize, text):
    """The tokens of ``text``, or the reason and location of its error."""
    try:
        return tokenize(text)
    except TurtleError as exc:
        return exc.reason, exc.line, exc.column


# Every character the lexer treats specially, and white space that it does
# not skip.
LEXER_ALPHABET = list('<>"\\@^;,.#[](){} \t\r\n\v\x85\xa0') + ['"""', "^^", "ex:a", "@en"]


class TestAgainstCharacterLexer:
    """The master-regex lexer against the per-character one it replaced."""

    @pytest.mark.parametrize("strategy", [
        mutated(SEEDS["ttl"]),
        mutated(GOLDEN),
        st.lists(st.sampled_from(LEXER_ALPHABET) | st.characters(), max_size=12).map("".join),
        st.text(st.sampled_from('\\"ntrq\n') | st.characters(), max_size=8).map(
            lambda body: f'ex:a ex:p "{body}" .'),
    ], ids=["fuzz-seed", "golden", "alphabet", "literal"])
    def test_same_tokens_or_same_error(self, strategy):
        @settings(max_examples=400)
        @given(strategy)
        def check(text):
            assert _lexed(_tokenize, text) == _lexed(turtle_oracle.tokenize, text)

        check()

    def test_same_tokens_on_the_seeds(self):
        for text in (SEEDS["ttl"], GOLDEN):
            assert _tokenize(text) == turtle_oracle.tokenize(text)
