import pytest

from semgraph.model import (
    ENTITY_OUT_EDGE,
    ConceptNode,
    Edge,
    EntityNode,
    RoleLabel,
    SemanticGraph,
    merge,
    validate,
)
from semgraph.penman import (
    CONST,
    DocRelation,
    PenmanError,
    UmrDocument,
    UmrError,
    amr_to_graph,
    parse_penman,
    parse_umr_document,
    umr_to_graph,
)
from helpers import in_edges, structure_key

S1T2_DOCUMENT = """\
(s1s / sentence :temporal s1t2 :aspect s1t)

# doc
(s1t2 contained s1t)
"""


class TestParseUmrDocument:
    def test_sentences_and_doc_block(self):
        document = parse_umr_document(S1T2_DOCUMENT)
        assert [tree.root for tree in document.sentences] == ["s1s"]
        assert [(r.source, r.relation, r.target) for r in document.relations] == [
            ("s1t2", "contained", "s1t")]

    def test_multiple_doc_blocks_concatenate(self):
        text = "(a / alpha :t x1)\n\n# doc\n(x1 before a)\n\n# doc\n(x1 after a)\n"
        document = parse_umr_document(text)
        assert len(document.relations) == 2

    def test_malformed_relation_line(self):
        with pytest.raises(PenmanError) as exc:
            parse_umr_document("(a / alpha)\n\n# doc\nnot a triple\n")
        assert "malformed document-level relation" in exc.value.reason

    def test_comments_inside_doc_block_skipped(self):
        text = "(a / alpha :t x1)\n\n# doc\n# note\n(x1 before a)\n"
        assert len(parse_umr_document(text).relations) == 1


class TestUmrToGraph:
    def test_no_doc_blocks_equals_per_sentence_amr_union(self):
        text = "(a / alpha :mod (b / beta))\n\n(c / gamma :quant 3)\n"
        document = parse_umr_document(text)
        combined = umr_to_graph(document)
        expected = merge(amr_to_graph(document.sentences[0]),
                         amr_to_graph(document.sentences[1]), [])
        assert structure_key(combined) == structure_key(expected)

    def test_s1t2_promotion_scenario(self):
        g = umr_to_graph(parse_umr_document(S1T2_DOCUMENT))
        assert validate(g) == []
        promoted = [nid for nid, node in g.nodes.items()
                    if isinstance(node, ConceptNode) and node.name == "s1t2"]
        assert len(promoted) == 1
        node = promoted[0]
        incoming = [str(e.label) for e in in_edges(g, node)]
        outgoing = [(str(e.label), e.target) for e in g.out_edges(node)]
        assert incoming == ["temporal"]
        assert len(outgoing) == 1 and outgoing[0][0] == "contained"
        target = g.nodes[outgoing[0][1]]
        assert isinstance(target, EntityNode) and target.value == "s1t"

    def test_naive_entity_conversion_would_be_invalid(self):
        # s1t2 kept as an entity with the outgoing contained edge: exactly the
        # structure the promotion rule exists to avoid.
        naive = SemanticGraph()
        sentence = naive.add_concept("sentence")
        s1t2 = naive.add_entity("s1t2")
        s1t = naive.add_entity("s1t")
        naive.add_edge(sentence, "temporal", s1t2)
        naive.add_edge(sentence, "aspect", s1t)
        naive.edges.append(Edge(s1t2, RoleLabel("contained"), s1t))
        assert ENTITY_OUT_EDGE in [v.code for v in validate(naive)]

    def test_promotion_oracle_only_doc_sources_promoted(self):
        # Oracle: the promotion set is exactly the set of document-level
        # relation sources; every other constant stays an entity.
        text = ("(s1s / sentence :temporal s1t2 :aspect s1t :tense past)\n"
                "\n# doc\n(s1t2 contained s1t)\n")
        document = parse_umr_document(text)
        doc_sources = {r.source for r in document.relations}
        g = umr_to_graph(document)
        concept_names = {n.name for n in g.nodes.values() if isinstance(n, ConceptNode)}
        entity_values = [n.value for n in g.nodes.values() if isinstance(n, EntityNode)]
        for tree in document.sentences:
            for slot in tree.slots:
                if slot.kind == CONST:
                    if slot.value in doc_sources:
                        assert slot.value in concept_names
                        assert slot.value not in entity_values
                    else:
                        assert slot.value in entity_values

    def test_plain_filler_stays_entity(self):
        text = "(s1s / sentence :tense past :temporal s1t2)\n\n# doc\n(s1t2 before s1s)\n"
        g = umr_to_graph(parse_umr_document(text))
        past = [n for n in g.nodes.values()
                if isinstance(n, EntityNode) and n.value == "past"]
        assert len(past) == 1

    def test_promoted_token_shared_across_occurrences(self):
        text = ("(s1s / sentence :temporal s1t2)\n\n"
                "(s2s / sentence :temporal s1t2)\n\n"
                "# doc\n(s1t2 contained s1s)\n")
        g = umr_to_graph(parse_umr_document(text))
        promoted = [n for n in g.nodes.values()
                    if isinstance(n, ConceptNode) and n.name == "s1t2"]
        assert len(promoted) == 1
        assert len(in_edges(g, promoted[0].id)) == 2

    def test_doc_edge_between_variables(self):
        text = ("(s1p / person)\n\n(s2p / person)\n\n"
                "# doc\n(s1p same-entity s2p)\n")
        g = umr_to_graph(parse_umr_document(text))
        assert len(g.nodes) == 2  # coreference adds an edge, never unifies
        assert len(g.edges) == 1
        assert g.edges[0].label.name == "same-entity"

    def test_unknown_doc_source_rejected(self):
        with pytest.raises(UmrError) as exc:
            umr_to_graph(parse_umr_document("(a / alpha)\n\n# doc\n(a rel a)\n(zz rel a)\n"))
        assert (str(exc.value), exc.value.line, exc.value.column) == (
            "document-level source 'zz' does not occur in any sentence (line 5)", 5, None)

    def test_unknown_doc_target_rejected(self):
        with pytest.raises(UmrError) as exc:
            umr_to_graph(parse_umr_document("(a / alpha)\n\n# doc\n(a rel zz)\n"))
        assert (str(exc.value), exc.value.line) == (
            "document-level target 'zz' does not occur in any sentence (line 4)", 4)

    def test_duplicate_variable_across_sentences_rejected(self):
        with pytest.raises(UmrError) as exc:
            umr_to_graph(parse_umr_document("(a / alpha)\n\n# ::id 2\n\n(a / beta)\n"))
        assert (str(exc.value), exc.value.line) == (
            "variable 'a' is defined in more than one sentence (line 5)", 5)

    @pytest.mark.parametrize("document,message", [
        (UmrDocument([parse_penman("(a / alpha)"), parse_penman("(a / beta)")], []),
         "variable 'a' is defined in more than one sentence"),
        (UmrDocument([parse_penman("(a / alpha)")], [DocRelation("zz", "rel", "a")]),
         "document-level source 'zz' does not occur in any sentence"),
    ], ids=["variable", "relation"])
    def test_document_built_without_lines_raises_with_no_location(self, document, message):
        with pytest.raises(UmrError) as exc:
            umr_to_graph(document)
        assert (str(exc.value), exc.value.line) == (message, None)

    def test_lines_are_where_each_sentence_and_relation_starts(self):
        text = ("# ::id 1\n(a / alpha\n  :ARG0 (b / beta))\n\n\n(c / gamma)\n\n"
                "# doc\n# note\n(a rel c)\n(c rel b)\n")
        document = parse_umr_document(text)
        assert [tree.line for tree in document.sentences] == [2, 6]
        assert [relation.line for relation in document.relations] == [10, 11]

    def test_output_always_lax_valid(self):
        text = ("(s1s / sentence :temporal s1t2 :mod (s1x / thing :quant 4))\n\n"
                "(s2s / sentence :temporal s2t :ARG0 s1x)\n\n"
                "# doc\n(s1t2 contained s2t)\n(s1t2 before s1s)\n(s1x same-entity s2s)\n")
        g = umr_to_graph(parse_umr_document(text))
        assert validate(g) == []
